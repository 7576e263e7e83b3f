//! 8-bit luminance planes — the pixel format hardware ME consumes.

use crate::me::MB_SIZE;
use ags_image::RgbImage;

/// An 8-bit single-channel image plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LumaPlane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl LumaPlane {
    /// Creates a plane filled with zeros.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![0; width * height] }
    }

    /// Reassembles a plane from raw row-major bytes — deserialization
    /// support for checkpointed reference pictures.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "plane data length mismatch");
        Self { width, height, data }
    }

    /// Creates a plane from a generator function.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self { width, height, data }
    }

    /// Converts an RGB frame to 8-bit luminance (Rec. 601), exactly the
    /// conversion a camera ISP performs before handing frames to the CODEC.
    pub fn from_rgb(rgb: &RgbImage) -> Self {
        let gray = rgb.to_gray();
        Self {
            width: rgb.width(),
            height: rgb.height(),
            data: gray.pixels().iter().map(|&v| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8).collect(),
        }
    }

    /// Plane width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor (unchecked in release builds).
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Raw pixel data, row-major.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Sum of absolute differences between the [`MB_SIZE`]×[`MB_SIZE`]
    /// macro-block of `self` at `(x, y)` and the block of `reference` at
    /// `(rx, ry)`.
    ///
    /// Both blocks must lie fully inside their planes; the caller (the ME
    /// search) guarantees this, mirroring hardware that clamps candidate
    /// motion vectors to the picture boundary. A block that does not fit
    /// panics, also in release builds.
    #[inline]
    pub fn block_sad(
        &self,
        x: usize,
        y: usize,
        reference: &LumaPlane,
        rx: usize,
        ry: usize,
    ) -> u32 {
        self.block_sad_bounded(x, y, reference, rx, ry, u32::MAX)
    }

    /// [`block_sad`](Self::block_sad) with an early exit: the sum is
    /// abandoned as soon as the partial SAD exceeds `bound`.
    ///
    /// The return value is the exact SAD whenever it is `<= bound`; otherwise
    /// it is some partial sum that is already `> bound`. Block-matching
    /// searches pass their current best SAD as `bound`: any candidate whose
    /// true SAD could still win (`<= bound`, covering ties) is computed
    /// exactly, so the search selects the same best match as with the
    /// unbounded SAD while skipping most of the arithmetic on losers.
    #[inline]
    pub fn block_sad_bounded(
        &self,
        x: usize,
        y: usize,
        reference: &LumaPlane,
        rx: usize,
        ry: usize,
        bound: u32,
    ) -> u32 {
        #[cfg(any(all(target_arch = "x86_64", target_feature = "sse2"), target_arch = "aarch64"))]
        {
            // Both blocks inside their planes: the safety precondition of the
            // raw-pointer kernel. Anything else falls through to the
            // panicking per-pixel path below.
            let fits = |p: &LumaPlane, x: usize, y: usize| {
                x + MB_SIZE <= p.width && y + MB_SIZE <= p.height
            };
            if fits(self, x, y) && fits(reference, rx, ry) {
                // Two-row bound-check granularity: the partial sums it exits
                // on are still `> bound`, and any SAD `<= bound` is computed
                // exactly — the same contract as the per-row early exit.
                return block_sad8_simd(self, x, y, reference, rx, ry, bound);
            }
        }
        self.block_sad_rows(x, y, reference, rx, ry, bound)
    }

    /// Scalar reference SAD — the per-pixel oracle the whole-block kernel is
    /// tested and benchmarked against.
    #[inline]
    pub fn block_sad_scalar(
        &self,
        x: usize,
        y: usize,
        reference: &LumaPlane,
        rx: usize,
        ry: usize,
    ) -> u32 {
        self.block_sad_rows(x, y, reference, rx, ry, u32::MAX)
    }

    /// The per-pixel SAD loop with a per-row early exit above `bound`: the
    /// scalar oracle, and the whole SAD on targets without a whole-block
    /// kernel. A block that does not fit its plane panics, also in release
    /// builds: a block past the right edge would otherwise read the next
    /// row's pixels.
    #[inline]
    fn block_sad_rows(
        &self,
        x: usize,
        y: usize,
        reference: &LumaPlane,
        rx: usize,
        ry: usize,
        bound: u32,
    ) -> u32 {
        assert!(x + MB_SIZE <= self.width && y + MB_SIZE <= self.height, "block outside the plane");
        assert!(
            rx + MB_SIZE <= reference.width && ry + MB_SIZE <= reference.height,
            "reference block outside the plane"
        );
        let mut sad = 0u32;
        for row in 0..MB_SIZE {
            let a = &self.data[(y + row) * self.width + x..][..MB_SIZE];
            let b = &reference.data[(ry + row) * reference.width + rx..][..MB_SIZE];
            for (pa, pb) in a.iter().zip(b) {
                sad += pa.abs_diff(*pb) as u32;
            }
            if sad > bound {
                return sad;
            }
        }
        sad
    }
}

/// Name of the whole-block SAD kernel selected at compile time for this
/// target (`"sse2"`, `"neon"`, or `"scalar"` where the per-pixel oracle is
/// the kernel); reported by the kernel benchmarks.
pub fn sad_kernel_name() -> &'static str {
    if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
        "sse2"
    } else if cfg!(target_arch = "aarch64") {
        "neon"
    } else {
        "scalar"
    }
}

// The whole-block kernel below is written for 8×8 macro-blocks.
const _: () = assert!(MB_SIZE == 8);

/// Whole-block SAD for the 8×8 macro-block, processing **two rows
/// per SIMD op** with a bound check every row pair.
///
/// Exactness contract matches [`LumaPlane::block_sad_bounded`]: any return
/// value `<= bound` is the exact block SAD (integer sums, bit-identical to
/// scalar); early exits return a partial sum already `> bound`. Call with
/// `bound = u32::MAX` for the unbounded kernel.
#[cfg(any(all(target_arch = "x86_64", target_feature = "sse2"), target_arch = "aarch64"))]
#[inline]
#[allow(clippy::too_many_arguments)]
fn block_sad8_simd(
    current: &LumaPlane,
    x: usize,
    y: usize,
    reference: &LumaPlane,
    rx: usize,
    ry: usize,
    bound: u32,
) -> u32 {
    let a_stride = current.width;
    let b_stride = reference.width;
    let a_base = y * a_stride + x;
    let b_base = ry * b_stride + rx;
    debug_assert!(a_base + 7 * a_stride + 8 <= current.data.len());
    debug_assert!(b_base + 7 * b_stride + 8 <= reference.data.len());
    let a = current.data.as_ptr();
    let b = reference.data.as_ptr();
    let mut sad = 0u32;
    for pair in 0..4usize {
        let ao = a_base + 2 * pair * a_stride;
        let bo = b_base + 2 * pair * b_stride;
        // SAFETY: the debug-asserted block bounds (enforced by the callers,
        // which clamp candidate MVs to the picture) keep every 8-byte row
        // read inside the plane buffers, and the SIMD feature is statically
        // enabled by the surrounding cfg.
        let pair_sad = unsafe {
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            {
                use std::arch::x86_64::{
                    __m128i, _mm_cvtsi128_si64, _mm_loadl_epi64, _mm_sad_epu8, _mm_unpackhi_epi64,
                    _mm_unpacklo_epi64,
                };
                // Pack rows r and r+1 of each block into one 16-byte vector;
                // one _mm_sad_epu8 covers both rows (two u64 partial sums).
                let va = _mm_unpacklo_epi64(
                    _mm_loadl_epi64(a.add(ao).cast::<__m128i>()),
                    _mm_loadl_epi64(a.add(ao + a_stride).cast::<__m128i>()),
                );
                let vb = _mm_unpacklo_epi64(
                    _mm_loadl_epi64(b.add(bo).cast::<__m128i>()),
                    _mm_loadl_epi64(b.add(bo + b_stride).cast::<__m128i>()),
                );
                let s = _mm_sad_epu8(va, vb);
                (_mm_cvtsi128_si64(s) + _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s))) as u32
            }
            #[cfg(target_arch = "aarch64")]
            {
                use std::arch::aarch64::{vabdq_u8, vaddlvq_u8, vcombine_u8, vld1_u8};
                let va = vcombine_u8(vld1_u8(a.add(ao)), vld1_u8(a.add(ao + a_stride)));
                let vb = vcombine_u8(vld1_u8(b.add(bo)), vld1_u8(b.add(bo + b_stride)));
                vaddlvq_u8(vabdq_u8(va, vb)) as u32
            }
        };
        sad += pair_sad;
        if sad > bound {
            return sad;
        }
    }
    sad
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_math::Vec3;

    #[test]
    fn from_rgb_quantizes_luma() {
        let rgb = RgbImage::filled(4, 4, Vec3::ONE);
        let plane = LumaPlane::from_rgb(&rgb);
        assert_eq!(plane.at(0, 0), 255);
        let rgb = RgbImage::filled(4, 4, Vec3::ZERO);
        assert_eq!(LumaPlane::from_rgb(&rgb).at(2, 2), 0);
    }

    #[test]
    fn sad_of_identical_blocks_is_zero() {
        let p = LumaPlane::from_fn(16, 16, |x, y| (x * 7 + y * 3) as u8);
        assert_eq!(p.block_sad(4, 4, &p, 4, 4), 0);
    }

    #[test]
    fn sad_counts_absolute_differences() {
        let a = LumaPlane::from_fn(8, 8, |_, _| 10);
        let b = LumaPlane::from_fn(8, 8, |_, _| 13);
        // 3 per pixel * 64 pixels
        assert_eq!(a.block_sad(0, 0, &b, 0, 0), 192);
        // Symmetric.
        assert_eq!(b.block_sad(0, 0, &a, 0, 0), 192);
    }

    #[test]
    fn sad_of_shifted_content_matches_at_offset() {
        // Content moves 2 px right between reference and current.
        let reference = LumaPlane::from_fn(32, 16, |x, _| (x * 8 % 256) as u8);
        let current = LumaPlane::from_fn(32, 16, |x, _| (x.saturating_sub(2) * 8 % 256) as u8);
        let aligned = current.block_sad(8, 4, &reference, 6, 4);
        let unaligned = current.block_sad(8, 4, &reference, 8, 4);
        assert_eq!(aligned, 0);
        assert!(unaligned > 0);
    }

    #[test]
    fn bounded_sad_is_exact_up_to_the_bound() {
        let a = LumaPlane::from_fn(16, 16, |x, y| ((x * 31 + y * 17) % 256) as u8);
        let b = LumaPlane::from_fn(16, 16, |x, y| ((x * 13 + y * 29 + 5) % 256) as u8);
        let exact = a.block_sad(2, 3, &b, 4, 1);
        // Any bound at or above the true SAD returns the exact value.
        assert_eq!(a.block_sad_bounded(2, 3, &b, 4, 1, exact), exact);
        assert_eq!(a.block_sad_bounded(2, 3, &b, 4, 1, u32::MAX), exact);
        // A tighter bound may exit early but must report a sum above it.
        let early = a.block_sad_bounded(2, 3, &b, 4, 1, exact / 4);
        assert!(early > exact / 4);
        assert!(early <= exact);
    }

    #[test]
    fn block8_fast_path_matches_scalar_everywhere() {
        // The 8×8 whole-block kernel on a dense grid of (current, reference)
        // offsets, unbounded and bounded: exact whenever <= bound, and any
        // early exit must report a partial sum above the bound. Blocks flush
        // against the right and bottom edges (`x + 8 == 40`) end the
        // kernel's last 8-byte load exactly at the end of the plane's buffer.
        let a = LumaPlane::from_fn(40, 40, |x, y| (((x * 41 + y * 23) ^ (x + y)) % 256) as u8);
        let b = LumaPlane::from_fn(40, 40, |x, y| (((x * 17 + y * 71) ^ (x * 2 + y)) % 256) as u8);
        let edge = 40 - MB_SIZE;
        let grid = (0..8).flat_map(|y| (0..8).map(move |x| (x, y)));
        for (x, y) in grid.chain([(edge, 0), (3, edge), (edge, edge)]) {
            let flush = [(edge, 5), (0, edge), (edge, edge)];
            let inner = [(0, 0), ((x + 1).min(edge), y), (31, 31), (5, 17)];
            for (rx, ry) in inner.into_iter().chain(flush) {
                let exact = a.block_sad_scalar(x, y, &b, rx, ry);
                assert_eq!(a.block_sad(x, y, &b, rx, ry), exact, "({x},{y})/({rx},{ry})");
                assert_eq!(a.block_sad_bounded(x, y, &b, rx, ry, exact), exact);
                assert_eq!(a.block_sad_bounded(x, y, &b, rx, ry, u32::MAX), exact);
                if exact > 0 {
                    let early = a.block_sad_bounded(x, y, &b, rx, ry, exact - 1);
                    assert!(early > exact - 1, "must exit above the bound");
                    assert!(early <= exact);
                }
            }
        }
    }

    #[test]
    fn dispatched_row_kernel_matches_scalar_reference() {
        // The kernel `block_sad` dispatches to (the 8×8 SIMD kernel, or the
        // per-pixel oracle where there is none) and the scalar reference both
        // sum integers, so they must agree bit-for-bit at every offset,
        // including blocks flush against a non-square plane's far corner.
        let a = LumaPlane::from_fn(64, 48, |x, y| (((x * 37 + y * 101) ^ (x * y)) % 256) as u8);
        let b = LumaPlane::from_fn(64, 48, |x, y| (((x * 53 + y * 19) ^ (x + y * 7)) % 256) as u8);
        let (ex, ey) = (64 - MB_SIZE, 48 - MB_SIZE);
        for (x, y, rx, ry) in [(0, 0, 0, 0), (3, 7, 11, 2), (ex, ey, 1, 5), (1, 5, ex, ey)] {
            let dispatched = a.block_sad(x, y, &b, rx, ry);
            let scalar = a.block_sad_scalar(x, y, &b, rx, ry);
            assert_eq!(dispatched, scalar, "({x},{y})/({rx},{ry})");
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_block_sad_panics_not_ub() {
        // The 8×8 SIMD fast path must never turn a bad coordinate into an
        // out-of-bounds read: inputs that don't fit the plane fall through
        // to the per-pixel path, which panics (also in release) — here on a
        // block past the right edge whose rows all lie inside the buffer.
        let p = LumaPlane::new(16, 16);
        let _ = p.block_sad(12, 0, &p, 0, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_bounded_block_sad_panics_not_ub() {
        let p = LumaPlane::new(16, 16);
        let _ = p.block_sad_bounded(0, 0, &p, 12, 12, u32::MAX);
    }

    #[test]
    fn sad_kernel_name_matches_target() {
        let name = sad_kernel_name();
        assert!(["sse2", "neon", "scalar"].contains(&name), "{name}");
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        assert_eq!(name, "sse2");
        #[cfg(target_arch = "aarch64")]
        assert_eq!(name, "neon");
    }

    #[test]
    fn bounded_sad_agrees_with_unbounded_below_bound() {
        let a = LumaPlane::from_fn(32, 32, |x, y| ((x * 91 + y * 57) % 256) as u8);
        let b = LumaPlane::from_fn(32, 32, |x, y| ((x * 33 + y * 72 + 9) % 256) as u8);
        let exact = a.block_sad(4, 4, &b, 9, 2);
        assert_eq!(a.block_sad_bounded(4, 4, &b, 9, 2, exact), exact);
        assert_eq!(exact, a.block_sad_scalar(4, 4, &b, 9, 2));
    }

    #[test]
    fn from_fn_layout() {
        let p = LumaPlane::from_fn(3, 2, |x, y| (y * 3 + x) as u8);
        assert_eq!(p.data(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(p.at(2, 1), 5);
    }
}
