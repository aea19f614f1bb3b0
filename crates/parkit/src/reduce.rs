//! Deterministic combination of reduction partials.

/// Combine an ordered sequence of partials in a fixed pairwise tree.
///
/// The tree shape depends only on the number of partials, never on thread
/// timing, so floating-point reductions are bit-reproducible for a given
/// chunking. This is exactly the "user-defined binary tree reduction" the
/// paper fell back to when SYCL 2020 built-in reductions were unavailable.
pub(crate) fn tree_combine<T, C>(
    partials: impl IntoIterator<Item = T>,
    identity: T,
    combine: &C,
) -> T
where
    T: Clone,
    C: Fn(T, T) -> T,
{
    let mut level: Vec<T> = partials.into_iter().collect();
    if level.is_empty() {
        return identity;
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.pop().expect("non-empty level")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_identity() {
        let r = tree_combine(std::iter::empty::<i32>(), 42, &|a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    fn tree_matches_sequential_for_associative_ops() {
        let xs: Vec<u64> = (1..=100).collect();
        let tree = tree_combine(xs.iter().copied(), 0, &|a, b| a + b);
        assert_eq!(tree, 5050);
        let max = tree_combine(xs.iter().copied(), 0, &|a, b| a.max(b));
        assert_eq!(max, 100);
    }

    #[test]
    fn tree_order_is_fixed() {
        // Record the combine order with strings; it must be the balanced
        // pairwise pattern (0,1)(2,3).. independent of anything else.
        let parts = vec![
            "a".to_owned(),
            "b".into(),
            "c".into(),
            "d".into(),
            "e".into(),
        ];
        let r = tree_combine(parts, String::new(), &|a, b| format!("({a}{b})"));
        assert_eq!(r, "(((ab)(cd))e)");
    }

    #[test]
    fn float_tree_is_reproducible() {
        let xs: Vec<f64> = (0..1023).map(|i| (i as f64 * 0.37).cos()).collect();
        let a = tree_combine(xs.iter().copied(), 0.0, &|a, b| a + b);
        let b = tree_combine(xs.iter().copied(), 0.0, &|a, b| a + b);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
