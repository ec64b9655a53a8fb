//! FNV-1a digests: stamped on inputs so equal seeds provably mean equal
//! inputs, and on outputs that must repeat exactly across repetitions.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f32s(&mut self, xs: &[f32]) -> &mut Self {
        for x in xs {
            self.u64(x.to_bits() as u64);
        }
        self
    }

    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        for x in xs {
            self.u64(x.to_bits());
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_value_and_their_order() {
        let d = |xs: &[f32]| *Fnv::default().f32s(xs);
        assert_eq!(d(&[1.0, 2.0]), d(&[1.0, 2.0]));
        assert_ne!(d(&[1.0, 2.0]), d(&[2.0, 1.0]));
        assert_ne!(d(&[0.0]), d(&[-0.0]), "bit-level, not numeric, equality");
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
    }
}
