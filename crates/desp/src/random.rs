//! Random-number streams for discrete-event random simulation.
//!
//! DESP-C++ gave each stochastic activity of a model its own independent
//! random stream so that changing one activity (e.g. the transaction mix)
//! does not perturb the draws of another (e.g. disk service noise). This
//! module reproduces that design:
//!
//! * [`Xoshiro256`] — a small, fast, well-tested generator
//!   (xoshiro256++ by Blackman & Vigna) implemented here so that replication
//!   results are bit-reproducible regardless of the `rand` crate version.
//!   It implements [`rand::TryRng`] (hence `rand::Rng`) and
//!   [`rand::SeedableRng`], so the whole
//!   `rand` ecosystem of adaptors remains usable on top of it.
//! * [`RandomStream`] — a stream with the distribution samplers a database
//!   simulation needs: uniforms, exponentials (Poisson arrivals), normals,
//!   Bernoulli trials, discrete choices, and Zipf selection for skewed
//!   object access.
//! * [`StreamFamily`] — derives an unbounded family of *independent* streams
//!   from a single experiment seed (stream `i` of seed `s` never overlaps
//!   stream `j`, seeds are decorrelated with SplitMix64).

use rand::{Rng as _, SeedableRng, TryRng};
use std::convert::Infallible;

/// SplitMix64 step, used for seed expansion (recommended by the xoshiro
/// authors for initialising state from a single 64-bit seed).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ pseudo-random generator.
///
/// Period 2^256 − 1; passes BigCrush. Chosen over `StdRng` so that the
/// simulation results recorded in `EXPERIMENTS.md` stay reproducible even
/// across major `rand` releases.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn from_seed_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        Xoshiro256 { s }
    }

    #[inline(always)]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

// Implementing the infallible `TryRng` grants the blanket `rand::Rng` impl,
// so the whole `rand` ecosystem of adaptors works on `Xoshiro256`.
impl TryRng for Xoshiro256 {
    type Error = Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    #[inline(always)]
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

impl SeedableRng for Xoshiro256 {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, slot) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *slot = u64::from_le_bytes(b);
        }
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        Xoshiro256 { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Xoshiro256::from_seed_u64(state)
    }
}

/// Reciprocals of the 128 subinterval midpoints (see [`fast_ln`]).
const LN_INV: [f64; 128] = [
    f64::from_bits(0x3FF690AA14C2F61D),
    f64::from_bits(0x3FF67103C7E0340F),
    f64::from_bits(0x3FF651B5C793D42D),
    f64::from_bits(0x3FF632BEA459C7D5),
    f64::from_bits(0x3FF6141CF69A8EB0),
    f64::from_bits(0x3FF5F5CF5E74D59D),
    f64::from_bits(0x3FF5D7D48388D303),
    f64::from_bits(0x3FF5BA2B14C5500D),
    f64::from_bits(0x3FF59CD1C8364EF7),
    f64::from_bits(0x3FF57FC75AD53F2D),
    f64::from_bits(0x3FF5630A905AB0CB),
    f64::from_bits(0x3FF5469A3311797C),
    f64::from_bits(0x3FF52A7513AB3D5E),
    f64::from_bits(0x3FF50E9A09164F25),
    f64::from_bits(0x3FF4F307F054DB28),
    f64::from_bits(0x3FF4D7BDAC555190),
    f64::from_bits(0x3FF4BCBA25CC0461),
    f64::from_bits(0x3FF4A1FC4B0DEE7C),
    f64::from_bits(0x3FF487830FEC992F),
    f64::from_bits(0x3FF46D4D6D931650),
    f64::from_bits(0x3FF4535A62640555),
    f64::from_bits(0x3FF439A8F1D89A16),
    f64::from_bits(0x3FF4203824609C7A),
    f64::from_bits(0x3FF407070743586E),
    f64::from_bits(0x3FF3EE14AC81760A),
    f64::from_bits(0x3FF3D5602AB7B200),
    f64::from_bits(0x3FF3BCE89D026EBF),
    f64::from_bits(0x3FF3A4AD22E2170A),
    f64::from_bits(0x3FF38CACE0204B00),
    f64::from_bits(0x3FF374E6FCB5D0DE),
    f64::from_bits(0x3FF35D5AA4B142F9),
    f64::from_bits(0x3FF34607081E74C0),
    f64::from_bits(0x3FF32EEB5AEE88B9),
    f64::from_bits(0x3FF31806D4E0B1BA),
    f64::from_bits(0x3FF30158B16B99D3),
    f64::from_bits(0x3FF2EAE02FA7697C),
    f64::from_bits(0x3FF2D49C923869F9),
    f64::from_bits(0x3FF2BE8D1F3A3DE1),
    f64::from_bits(0x3FF2A8B1202BAB0C),
    f64::from_bits(0x3FF29307E1DAF14D),
    f64::from_bits(0x3FF27D90B452A980),
    f64::from_bits(0x3FF2684AEAC72899),
    f64::from_bits(0x3FF25335DB8462A9),
    f64::from_bits(0x3FF23E50DFDC49C4),
    f64::from_bits(0x3FF2299B5415A4FD),
    f64::from_bits(0x3FF21514975B5BBF),
    f64::from_bits(0x3FF200BC0BAC31ED),
    f64::from_bits(0x3FF1EC9115CAF152),
    f64::from_bits(0x3FF1D8931D2EFD1B),
    f64::from_bits(0x3FF1C4C18BF54C08),
    f64::from_bits(0x3FF1B11BCED1C64F),
    f64::from_bits(0x3FF19DA15501042D),
    f64::from_bits(0x3FF18A51903A6A35),
    f64::from_bits(0x3FF1772BF4A2A09A),
    f64::from_bits(0x3FF1642FF8BE62BC),
    f64::from_bits(0x3FF1515D1565A45F),
    f64::from_bits(0x3FF13EB2C5B70A01),
    f64::from_bits(0x3FF12C30870BB1DF),
    f64::from_bits(0x3FF119D5D8EB4B51),
    f64::from_bits(0x3FF107A23D007A34),
    f64::from_bits(0x3FF0F595370D842A),
    f64::from_bits(0x3FF0E3AE4CE14593),
    f64::from_bits(0x3FF0D1ED064C6C2F),
    f64::from_bits(0x3FF0C050ED16F565),
    f64::from_bits(0x3FF0AED98CF5EE48),
    f64::from_bits(0x3FF09D867381737A),
    f64::from_bits(0x3FF08C57302AEF1C),
    f64::from_bits(0x3FF07B4B54339310),
    f64::from_bits(0x3FF06A6272A30DD5),
    f64::from_bits(0x3FF0599C203E7862),
    f64::from_bits(0x3FF048F7F37F7B66),
    f64::from_bits(0x3FF03875848BAA63),
    f64::from_bits(0x3FF028146D2C1326),
    f64::from_bits(0x3FF017D448C50034),
    f64::from_bits(0x3FF007B4B44DECB6),
    f64::from_bits(0x3FEFDEE6607C8AA7),
    f64::from_bits(0x3FEF9FE7FCF63B4F),
    f64::from_bits(0x3FEF61E0B5E77662),
    f64::from_bits(0x3FEF24CAE8520B85),
    f64::from_bits(0x3FEEE8A11CC60D64),
    f64::from_bits(0x3FEEAD5E05C04446),
    f64::from_bits(0x3FEE72FC7E1B406D),
    f64::from_bits(0x3FEE3977879215F4),
    f64::from_bits(0x3FEE00CA4953DA63),
    f64::from_bits(0x3FEDC8F00EA70998),
    f64::from_bits(0x3FED91E4459C0442),
    f64::from_bits(0x3FED5BA27DCDE604),
    f64::from_bits(0x3FED26266730FC58),
    f64::from_bits(0x3FECF16BD0EE3195),
    f64::from_bits(0x3FECBD6EA84AC94F),
    f64::from_bits(0x3FEC8A2AF79BD42C),
    f64::from_bits(0x3FEC579CE544C9F1),
    f64::from_bits(0x3FEC25C0B2C0C07F),
    f64::from_bits(0x3FEBF492BBB5BDEA),
    f64::from_bits(0x3FEBC40F7511AAE8),
    f64::from_bits(0x3FEB94336C307176),
    f64::from_bits(0x3FEB64FB460AD9C1),
    f64::from_bits(0x3FEB3663BE6DBD40),
    f64::from_bits(0x3FEB0869A7392D58),
    f64::from_bits(0x3FEADB09E7A73033),
    f64::from_bits(0x3FEAAE417B99BB29),
    f64::from_bits(0x3FEA820D72EF96CA),
    f64::from_bits(0x3FEA566AF0DFDCE8),
    f64::from_bits(0x3FEA2B572B5BC4FA),
    f64::from_bits(0x3FEA00CF6A767735),
    f64::from_bits(0x3FE9D6D107D2A21F),
    f64::from_bits(0x3FE9AD596E1591FE),
    f64::from_bits(0x3FE98466185F8C9D),
    f64::from_bits(0x3FE95BF491C936FA),
    f64::from_bits(0x3FE9340274E5CD4D),
    f64::from_bits(0x3FE90C8D6B49F894),
    f64::from_bits(0x3FE8E5932D170F5B),
    f64::from_bits(0x3FE8BF11808A91E9),
    f64::from_bits(0x3FE899063991B448),
    f64::from_bits(0x3FE8736F3960CACE),
    f64::from_bits(0x3FE84E4A6E0E6FD0),
    f64::from_bits(0x3FE82995D2323B23),
    f64::from_bits(0x3FE8054F6C86E5F2),
    f64::from_bits(0x3FE7E1754F8FB71B),
    f64::from_bits(0x3FE7BE05994115FA),
    f64::from_bits(0x3FE79AFE72AC2320),
    f64::from_bits(0x3FE7785E0FAD37E4),
    f64::from_bits(0x3FE75622AE9D2F2E),
    f64::from_bits(0x3FE7344A98055B3A),
    f64::from_bits(0x3FE712D41E560D4A),
    f64::from_bits(0x3FE6F1BD9D9F957E),
    f64::from_bits(0x3FE6D1057B4DA225),
    f64::from_bits(0x3FE6B0AA25E4E709),
];

/// `ln(1 / LN_INV[i])`, the log of each midpoint, to double precision.
const LN_LOGC: [f64; 128] = [
    f64::from_bits(0xBFD60112DBC1B0F3),
    f64::from_bits(0xBFD5A70F9DB56263),
    f64::from_bits(0xBFD54D8A47C798CA),
    f64::from_bits(0xBFD4F4817BA7B025),
    f64::from_bits(0xBFD49BF3E0B3292B),
    f64::from_bits(0xBFD443E023D66468),
    f64::from_bits(0xBFD3EC44F76E3358),
    f64::from_bits(0xBFD39521132A38C0),
    f64::from_bits(0xBFD33E7333F011A4),
    f64::from_bits(0xBFD2E83A1BBF4072),
    f64::from_bits(0xBFD292749195D46A),
    f64::from_bits(0xBFD23D216155C74C),
    f64::from_bits(0xBFD1E83F5BAB0B9B),
    f64::from_bits(0xBFD193CD55F2461D),
    f64::from_bits(0xBFD13FCA2A202D36),
    f64::from_bits(0xBFD0EC34B6A98910),
    f64::from_bits(0xBFD0990BDE6BCFB5),
    f64::from_bits(0xBFD0464E88965862),
    f64::from_bits(0xBFCFE7F7412842E7),
    f64::from_bits(0xBFCF44242BEC490A),
    f64::from_bits(0xBFCEA121B8BC696D),
    f64::from_bits(0xBFCDFEEDD6D4C53E),
    f64::from_bits(0xBFCD5D867D41C4D1),
    f64::from_bits(0xBFCCBCE9AAB8DFB4),
    f64::from_bits(0xBFCC1D15657259D5),
    f64::from_bits(0xBFCB7E07BB03EE5B),
    f64::from_bits(0xBFCADFBEC03C6142),
    f64::from_bits(0xBFCA423890FFF12B),
    f64::from_bits(0xBFC9A5735025A2E8),
    f64::from_bits(0xBFC9096D27556098),
    f64::from_bits(0xBFC86E2446E6E629),
    f64::from_bits(0xBFC7D396E5C175B4),
    f64::from_bits(0xBFC739C3413C4DC1),
    f64::from_bits(0xBFC6A0A79CFFDC2D),
    f64::from_bits(0xBFC6084242E7A89D),
    f64::from_bits(0xBFC5709182E4F0DF),
    f64::from_bits(0xBFC4D993B2E1F306),
    f64::from_bits(0xBFC443472EA5DFCA),
    f64::from_bits(0xBFC3ADAA57B970E9),
    f64::from_bits(0xBFC318BB954C1F1F),
    f64::from_bits(0xBFC284795419F347),
    f64::from_bits(0xBFC1F0E20651EE2A),
    f64::from_bits(0xBFC15DF4237D0395),
    f64::from_bits(0xBFC0CBAE2865A420),
    f64::from_bits(0xBFC03A0E96FFD233),
    f64::from_bits(0xBFBF5227ECA37D08),
    f64::from_bits(0xBFBE3179A4B9D0D7),
    f64::from_bits(0xBFBD120F780F7D10),
    f64::from_bits(0xBFBBF3E6920F797F),
    f64::from_bits(0xBFBAD6FC2798073F),
    f64::from_bits(0xBFB9BB4D76D0CD1A),
    f64::from_bits(0xBFB8A0D7C701DB33),
    f64::from_bits(0xBFB78798686B8F7D),
    f64::from_bits(0xBFB66F8CB41F55B0),
    f64::from_bits(0xBFB558B20BD93CFE),
    f64::from_bits(0xBFB44305D9DA5E3F),
    f64::from_bits(0xBFB32E8590C40D16),
    f64::from_bits(0xBFB21B2EAB73CEEF),
    f64::from_bits(0xBFB108FEACE01313),
    f64::from_bits(0xBFAFEFE63FEB4DF0),
    f64::from_bits(0xBFADD0132EEBC3AF),
    f64::from_bits(0xBFABB27F5BAB0694),
    f64::from_bits(0xBFA997260A3880FA),
    f64::from_bits(0xBFA77E028D89F6C3),
    f64::from_bits(0xBFA56710473D4017),
    f64::from_bits(0xBFA3524AA75B4843),
    f64::from_bits(0xBFA13FAD2C1C486A),
    f64::from_bits(0xBF9E5E66C35A6E01),
    f64::from_bits(0xBF9A41B1C3ECC79A),
    f64::from_bits(0xBF962932A8C6745D),
    f64::from_bits(0xBF9214E0DB564450),
    f64::from_bits(0xBF8C0967BE6DE52D),
    f64::from_bits(0xBF83F146A38A7295),
    f64::from_bits(0xBF77C29BA6DFF2E2),
    f64::from_bits(0xBF5ECB676BA7D2C9),
    f64::from_bits(0x3F709564E8BE1ECD),
    f64::from_bits(0x3F882A5BA13A4D27),
    f64::from_bits(0x3F93F561D03F17FE),
    f64::from_bits(0x3F9BC6324AE6B1F1),
    f64::from_bits(0x3FA1C3ED779036BE),
    f64::from_bits(0x3FA59D4B09716FB8),
    f64::from_bits(0x3FA96F4E5EEBD371),
    f64::from_bits(0x3FAD3A1359A16DCE),
    f64::from_bits(0x3FB07EDA9EE351DF),
    f64::from_bits(0x3FB25D275B5D6021),
    f64::from_bits(0x3FB437FCEDBAF10D),
    f64::from_bits(0x3FB60F6819671036),
    f64::from_bits(0x3FB7E3755BCAD2F4),
    f64::from_bits(0x3FB9B430EE49B643),
    f64::from_bits(0x3FBB81A6C82C162B),
    f64::from_bits(0x3FBD4BE2A0787FD6),
    f64::from_bits(0x3FBF12EFEFBC94C5),
    f64::from_bits(0x3FC06B6CF8E31687),
    f64::from_bits(0x3FC14BD5D3A6AF52),
    f64::from_bits(0x3FC22AB7EBC803BD),
    f64::from_bits(0x3FC3081888EFB85B),
    f64::from_bits(0x3FC3E3FCD7904D22),
    f64::from_bits(0x3FC4BE69E99FDBAC),
    f64::from_bits(0x3FC59764B74BAF4D),
    f64::from_bits(0x3FC66EF21FA5F4BD),
    f64::from_bits(0x3FC74516E94DBCF7),
    f64::from_bits(0x3FC819D7C3118BCD),
    f64::from_bits(0x3FC8ED39448CA815),
    f64::from_bits(0x3FC9BF3FEEBF6168),
    f64::from_bits(0x3FCA8FF02CA27C4B),
    f64::from_bits(0x3FCB5F4E53B5F46B),
    f64::from_bits(0x3FCC2D5EA48B4181),
    f64::from_bits(0x3FCCFA254B4B4A4B),
    f64::from_bits(0x3FCDC5A660382E9C),
    f64::from_bits(0x3FCE8FE5E82B101D),
    f64::from_bits(0x3FCF58E7D50DFF4E),
    f64::from_bits(0x3FD0105803291889),
    f64::from_bits(0x3FD073A124B14FA7),
    f64::from_bits(0x3FD0D6512D099ADE),
    f64::from_bits(0x3FD13869F1865554),
    f64::from_bits(0x3FD199ED3F1A910B),
    f64::from_bits(0x3FD1FADCDA8ADC47),
    f64::from_bits(0x3FD25B3A809E88AB),
    f64::from_bits(0x3FD2BB07E64F817D),
    f64::from_bits(0x3FD31A46B8F8BE09),
    f64::from_bits(0x3FD378F89E835C4A),
    f64::from_bits(0x3FD3D71F35926FE0),
    f64::from_bits(0x3FD434BC15AD90A1),
    f64::from_bits(0x3FD491D0CF6A33A5),
    f64::from_bits(0x3FD4EE5EEC93D95B),
    f64::from_bits(0x3FD54A67F0531AB8),
    f64::from_bits(0x3FD5A5ED57539F35),
    f64::from_bits(0x3FD600F097E904C4),
];

/// Natural logarithm by table lookup + degree-5 polynomial — the hot
/// half of [`RandomStream::expo`].
///
/// `f64::ln` goes through the platform libm: an opaque call that blocks
/// inlining, spills every live xmm register at each exponential draw,
/// and ties replication results to the host's libm version. This
/// implementation is pure Rust (fully inlined, identical bits on every
/// platform): split `x = 2^k · m` with `m ∈ [√½, √2)`, look up the
/// nearest of 128 precomputed midpoints `c`, and evaluate
/// `ln(x) = k·ln2 + ln(c) + ln(1 + r)` with `r = m·(1/c) − 1` (so
/// `|r| < 2^-7.2`) via the alternating series to degree 5. Absolute
/// error is below 1e-14, orders of magnitude tighter than any
/// statistical use of the samplers; accuracy against libm is pinned by
/// a property test.
///
/// Non-normal inputs (zero, subnormal, infinite, NaN) fall back to
/// `f64::ln`.
#[inline(always)]
pub fn fast_ln(x: f64) -> f64 {
    if !x.is_normal() || x < 0.0 {
        return x.ln();
    }
    const OFF: u64 = 0x3FE6_A09E_0000_0000;
    const LN2: f64 = std::f64::consts::LN_2;
    let bits = x.to_bits();
    let tmp = bits.wrapping_sub(OFF);
    let k = (tmp as i64) >> 52;
    let i = ((tmp >> 45) & 127) as usize;
    let m = f64::from_bits(bits.wrapping_sub((k as u64) << 52));
    let r = m * LN_INV[i] - 1.0;
    // ln(1+r) to degree 5; |r| < 2^-7.2 keeps the truncation < 1e-14.
    let ln1p = r - r * r * (0.5 - r * (1.0 / 3.0 - r * (0.25 - r * (1.0 / 5.0))));
    k as f64 * LN2 + LN_LOGC[i] + ln1p
}

/// A random stream: one generator plus the samplers simulation models need.
#[derive(Clone, Debug)]
pub struct RandomStream {
    rng: Xoshiro256,
    /// Cached second variate of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl RandomStream {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        RandomStream {
            rng: Xoshiro256::from_seed_u64(seed),
            gauss_spare: None,
        }
    }

    /// A uniform variate in `[0, 1)`, with 53 bits of precision.
    #[inline(always)]
    pub fn uniform01(&mut self) -> f64 {
        // 53 high bits → [0,1) with full double precision.
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform variate in `[low, high)`.
    ///
    /// # Panics
    /// Panics if `low > high`.
    #[inline]
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low <= high, "uniform: low {low} > high {high}");
        low + (high - low) * self.uniform01()
    }

    /// A uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        let n = n as u64;
        // Lemire's nearly-divisionless rejection sampling.
        let mut x = self.rng.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.rng.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// A uniform integer in the inclusive range `[low, high]`.
    #[inline]
    pub fn int_range(&mut self, low: usize, high: usize) -> usize {
        assert!(low <= high, "int_range: low {low} > high {high}");
        low + self.index(high - low + 1)
    }

    /// An exponential variate with the given **mean** (i.e. rate `1/mean`).
    ///
    /// This is the inter-arrival distribution of Poisson arrivals, and the
    /// distribution QNAP2's `EXP(mean)` denotes — DESP-C++ kept the same
    /// mean-parameterised convention, and so do we.
    #[inline(always)]
    pub fn expo(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "expo: mean must be positive");
        // 1 - U avoids ln(0); the max(0.0) guards the u = 0 draw, where
        // fast_ln(1.0) may round to a denormal-negative delay.
        (-mean * fast_ln(1.0 - self.uniform01())).max(0.0)
    }

    /// A Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform01() < p
    }

    /// A normal variate (Box–Muller with caching of the paired variate).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return mean + std_dev * z;
        }
        // Polar Box–Muller.
        loop {
            let u = 2.0 * self.uniform01() - 1.0;
            let v = 2.0 * self.uniform01() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * f);
                return mean + std_dev * (u * f);
            }
        }
    }

    /// Chooses an index according to a slice of non-negative weights.
    ///
    /// Used for the OCB transaction mix (PSET/PSIMPLE/PHIER/PSTOCH).
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "choose_weighted: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "choose_weighted: weights sum to zero");
        let mut x = self.uniform01() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Access to the underlying generator, for interoperation with `rand`
    /// adaptors (e.g. `rand::seq` shuffles).
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.rng
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// Derives an unbounded family of independent [`RandomStream`]s from one
/// experiment seed.
///
/// Stream identifiers are stable: `(seed, id)` always yields the same
/// stream, which is what makes a replication reproducible from its seed
/// alone: every random draw in the model comes from a stream of the
/// replication's seed, never from an unseeded or shared source.
#[derive(Clone, Debug)]
pub struct StreamFamily {
    seed: u64,
}

impl StreamFamily {
    /// Creates the family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        StreamFamily { seed }
    }

    /// The experiment seed the family was rooted at.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns stream number `id`.
    pub fn stream(&self, id: u64) -> RandomStream {
        // Decorrelate (seed, id) pairs through two SplitMix64 rounds.
        let mut s = self.seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(id.wrapping_add(1));
        let a = splitmix64(&mut s);
        let _ = splitmix64(&mut s);
        RandomStream::new(a ^ s)
    }
}

/// Zipf-distributed selection over `{0, 1, …, n−1}` with skew `theta`.
///
/// Rank 0 is the most popular element. `theta = 0` degenerates to the
/// uniform distribution; `theta ≈ 1` is the classical Zipf law used for
/// hot-spot object access in OCB-style workloads.
///
/// Implemented with a precomputed cumulative table and binary search:
/// building is O(n), sampling O(log n). The object bases simulated here are
/// at most tens of thousands of objects, so the table is cheap and exact.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` elements with skew `theta ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf: n must be positive");
        assert!(theta >= 0.0, "Zipf: theta must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point undershoot at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler covers no elements (never: `new` rejects n = 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, stream: &mut RandomStream) -> usize {
        let u = stream.uniform01();
        // partition_point returns the first index with cdf > u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = RandomStream::new(42);
        let mut b = RandomStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomStream::new(1);
        let mut b = RandomStream::new(2);
        let same = (0..64)
            .filter(|_| a.rng().next_u64() == b.rng().next_u64())
            .count();
        assert!(same < 2, "streams with different seeds should diverge");
    }

    #[test]
    fn uniform01_in_range_and_mean_correct() {
        let mut s = RandomStream::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = s.uniform01();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fast_ln_matches_libm() {
        // Dense sweep across the expo input domain (1 - U ∈ (2^-53, 1]).
        let mut x = 1e-16f64;
        while x <= 1.0 {
            let (fast, libm) = (fast_ln(x), x.ln());
            assert!(
                (fast - libm).abs() <= 1e-13 * libm.abs().max(1.0),
                "fast_ln({x}) = {fast} vs libm {libm}"
            );
            x *= 1.0 + 1.0 / 1024.0;
        }
        // Wide magnitude sweep plus edge cases.
        for e in -300..300 {
            let x = 1.7f64.powi(e).min(f64::MAX);
            let (fast, libm) = (fast_ln(x), x.ln());
            assert!(
                (fast - libm).abs() <= 1e-13 * libm.abs().max(1.0),
                "fast_ln({x}) = {fast} vs libm {libm}"
            );
        }
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert!(fast_ln(-1.0).is_nan());
        assert!(fast_ln(f64::NAN).is_nan());
        // Subnormal falls back to libm exactly.
        let sub = f64::from_bits(42);
        assert_eq!(fast_ln(sub), sub.ln());
    }

    #[test]
    fn expo_is_never_negative() {
        // The u = 0 draw gives ln(1.0); the sampler clamps the rounding
        // of that corner so a zero delay is the worst case.
        let mut s = RandomStream::new(7);
        for _ in 0..100_000 {
            assert!(s.expo(0.5) >= 0.0);
        }
        assert!(fast_ln(1.0).abs() < 1e-15);
    }

    #[test]
    fn expo_mean_matches() {
        let mut s = RandomStream::new(11);
        let n = 200_000;
        let mean_param = 3.5;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = s.expo(mean_param);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - mean_param).abs() < 0.05,
            "expo mean {mean} should approximate {mean_param}"
        );
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut s = RandomStream::new(13);
        let n = 5;
        let mut counts = [0usize; 5];
        let draws = 100_000;
        for _ in 0..draws {
            counts[s.index(n)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / draws as f64;
            assert!((frac - 0.2).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn int_range_inclusive_bounds() {
        let mut s = RandomStream::new(17);
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..10_000 {
            let v = s.int_range(3, 6);
            assert!((3..=6).contains(&v));
            saw_low |= v == 3;
            saw_high |= v == 6;
        }
        assert!(saw_low && saw_high);
    }

    #[test]
    fn normal_moments() {
        let mut s = RandomStream::new(19);
        let n = 200_000;
        let (mu, sd) = (10.0, 2.0);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = s.normal(mu, sd);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - mu).abs() < 0.05);
        assert!((var - sd * sd).abs() < 0.1);
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut s = RandomStream::new(23);
        let w = [0.25, 0.25, 0.25, 0.25];
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            counts[s.choose_weighted(&w)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.25).abs() < 0.01);
        }
    }

    #[test]
    fn choose_weighted_zero_weight_never_chosen() {
        let mut s = RandomStream::new(29);
        let w = [1.0, 0.0, 1.0];
        for _ in 0..10_000 {
            assert_ne!(s.choose_weighted(&w), 1);
        }
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        let mut s = RandomStream::new(31);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            counts[z.sample(&mut s)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 100_000.0 - 0.25).abs() < 0.01);
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut s = RandomStream::new(37);
        let mut first_decile = 0usize;
        let draws = 100_000;
        for _ in 0..draws {
            if z.sample(&mut s) < 10 {
                first_decile += 1;
            }
        }
        // With theta=1, P(rank < 10) = H(10)/H(100) ≈ 0.565.
        let frac = first_decile as f64 / draws as f64;
        assert!(frac > 0.5, "Zipf skew too weak: {frac}");
    }

    #[test]
    fn stream_family_streams_are_independent() {
        let fam = StreamFamily::new(99);
        let mut s0 = fam.stream(0);
        let mut s1 = fam.stream(1);
        let equal = (0..64)
            .filter(|_| s0.rng().next_u64() == s1.rng().next_u64())
            .count();
        assert!(equal < 2);
        // Stability: same (seed, id) → same stream.
        let mut s0b = StreamFamily::new(99).stream(0);
        let mut s0c = fam.stream(0);
        for _ in 0..16 {
            assert_eq!(s0b.rng().next_u64(), s0c.rng().next_u64());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut s = RandomStream::new(41);
        let mut v: Vec<u32> = (0..100).collect();
        s.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = Xoshiro256::from_seed_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
