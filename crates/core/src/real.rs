//! Floating-point genericity: the applications run in the paper's
//! precisions (CloverLeaf/OpenSBLI/MG-CFD in f64, RTM/Acoustic in f32).

use machine_model::Precision;

/// A real scalar type usable in kernels.
pub trait Real:
    Copy
    + Send
    + Sync
    + PartialOrd
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    /// The machine-model precision tag.
    const PRECISION: Precision;
    /// Bytes per element.
    const BYTES: f64;

    fn zero() -> Self;
    fn one() -> Self;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn min2(self, other: Self) -> Self;
    fn max2(self, other: Self) -> Self;
}

impl Real for f32 {
    const PRECISION: Precision = Precision::F32;
    const BYTES: f64 = 4.0;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn abs(self) -> Self {
        f32::abs(self)
    }
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    fn min2(self, other: Self) -> Self {
        f32::min(self, other)
    }
    fn max2(self, other: Self) -> Self {
        f32::max(self, other)
    }
}

impl Real for f64 {
    const PRECISION: Precision = Precision::F64;
    const BYTES: f64 = 8.0;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(x: f64) -> Self {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn abs(self) -> Self {
        f64::abs(self)
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn min2(self, other: Self) -> Self {
        f64::min(self, other)
    }
    fn max2(self, other: Self) -> Self {
        f64::max(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>() {
        assert_eq!(T::zero().to_f64(), 0.0);
        assert_eq!(T::one().to_f64(), 1.0);
        assert_eq!(T::from_f64(2.0).to_f64(), 2.0);
        assert_eq!(T::from_f64(-3.0).abs().to_f64(), 3.0);
        assert_eq!(T::from_f64(9.0).sqrt().to_f64(), 3.0);
        assert_eq!(T::from_f64(1.0).min2(T::from_f64(2.0)).to_f64(), 1.0);
        assert_eq!(T::from_f64(1.0).max2(T::from_f64(2.0)).to_f64(), 2.0);
    }

    #[test]
    fn both_precisions_behave() {
        roundtrip::<f32>();
        roundtrip::<f64>();
        assert_eq!(f32::PRECISION, Precision::F32);
        assert_eq!(f64::PRECISION, Precision::F64);
        assert_eq!(f32::BYTES, 4.0);
        assert_eq!(f64::BYTES, 8.0);
    }
}
