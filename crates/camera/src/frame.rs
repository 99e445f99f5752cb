//! Captured frames and their timing metadata.
//!
//! A frame is a grid of 8-bit sRGB pixels. Under the rolling shutter, each
//! *row* of the frame was exposed during its own time window, so a frame is
//! really a time series wearing an image's clothes: row index ↔ capture
//! time. [`FrameMeta`] records the mapping so the receiver (and the
//! experiment harnesses) can reason about exactly which LED symbols each
//! band of rows overlapped.

use crate::pool::FramePool;
#[cfg(test)]
use colorbars_color::Srgb;

/// Capture metadata attached to every frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameMeta {
    /// Zero-based frame index within the capture.
    pub index: usize,
    /// Wall-clock time the first row began exposing, in seconds.
    pub start_time: f64,
    /// Per-row exposure duration in seconds.
    pub exposure: f64,
    /// Sensor gain expressed as ISO (100 = base).
    pub iso: f64,
    /// Time between consecutive rows beginning exposure, in seconds.
    pub row_time: f64,
}

impl FrameMeta {
    /// The exposure window of row `r`: `[start, start + exposure]`.
    pub fn row_window(&self, row: usize) -> (f64, f64) {
        let t0 = self.start_time + row as f64 * self.row_time;
        (t0, t0 + self.exposure)
    }

    /// Midpoint of row `r`'s exposure window — the row's nominal timestamp.
    pub fn row_timestamp(&self, row: usize) -> f64 {
        let (t0, t1) = self.row_window(row);
        0.5 * (t0 + t1)
    }
}

/// A captured image: `height` rows × `width` columns of sRGB pixels, row-major.
///
/// A frame may hold a handle to the [`FramePool`] its pixel buffer came
/// from; such a frame returns the buffer to the pool when dropped, and its
/// clones draw their buffers from the same pool — the steady-state capture
/// pipeline allocates nothing. Equality ignores the
/// pool handle: two frames are equal when their dimensions, pixels and
/// metadata are.
#[derive(Debug)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<[u8; 3]>,
    pool: Option<FramePool>,
    /// Capture metadata.
    pub meta: FrameMeta,
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        let mut pixels = match &self.pool {
            Some(pool) => pool.take_pixels(self.pixels.len()),
            None => Vec::with_capacity(self.pixels.len()),
        };
        pixels.extend_from_slice(&self.pixels);
        Frame {
            width: self.width,
            height: self.height,
            pixels,
            pool: self.pool.clone(),
            meta: self.meta,
        }
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.width == other.width
            && self.height == other.height
            && self.meta == other.meta
            && self.pixels == other.pixels
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle_pixels(std::mem::take(&mut self.pixels));
        }
    }
}

impl Frame {
    /// Create a frame from row-major pixel data.
    ///
    /// # Panics
    /// Panics if `pixels.len() != width * height` or either dimension is 0.
    pub fn new(width: usize, height: usize, pixels: Vec<[u8; 3]>, meta: FrameMeta) -> Frame {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        Frame {
            width,
            height,
            pixels,
            pool: None,
            meta,
        }
    }

    /// [`Frame::new`] for a pixel buffer checked out of `pool`: the frame
    /// returns the buffer there when dropped, and draws its clones from the
    /// same pool.
    pub fn new_pooled(
        width: usize,
        height: usize,
        pixels: Vec<[u8; 3]>,
        meta: FrameMeta,
        pool: FramePool,
    ) -> Frame {
        let mut frame = Frame::new(width, height, pixels, meta);
        frame.pool = Some(pool);
        frame
    }

    /// Frame width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height (rows — the rolling-shutter time axis).
    pub fn height(&self) -> usize {
        self.height
    }

    /// One full row of pixels.
    pub fn row(&self, row: usize) -> &[[u8; 3]] {
        assert!(row < self.height, "row {row} out of bounds");
        &self.pixels[row * self.width..(row + 1) * self.width]
    }

    /// Iterate rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[[u8; 3]]> {
        self.pixels.chunks_exact(self.width)
    }

    /// Write the frame as a binary PPM (P6) image — the captured color
    /// bands become directly viewable, like the paper's Fig 1(b) frames.
    pub fn write_ppm<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        for px in &self.pixels {
            w.write_all(px)?;
        }
        Ok(())
    }

    /// Convenience: save the frame as a PPM file.
    pub fn save_ppm<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_ppm(&mut f)
    }

    /// Mean 8-bit luma (Rec. 601 weights) over the whole frame — the
    /// auto-exposure controller's metering input during video. Settling
    /// renders no frame: its preview meter weighs luma the same way.
    pub fn mean_luma(&self) -> f64 {
        let mut acc = 0.0;
        for px in &self.pixels {
            acc += 0.299 * px[0] as f64 + 0.587 * px[1] as f64 + 0.114 * px[2] as f64;
        }
        acc / (self.pixels.len() as f64 * 255.0)
    }
}

#[cfg(test)]
impl Frame {
    /// Raw 8-bit pixel at `(row, col)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub(crate) fn pixel(&self, row: usize, col: usize) -> [u8; 3] {
        self.row(row)[col]
    }

    /// Pixel as floating sRGB.
    pub(crate) fn pixel_srgb(&self, row: usize, col: usize) -> Srgb {
        Srgb::from_bytes(self.pixel(row, col))
    }

    /// Mean sRGB value of a row (the receiver's dimensionality reduction,
    /// paper Section 7 Step 2 — averaging across the band direction).
    pub(crate) fn row_mean_srgb(&self, row: usize) -> Srgb {
        let r = self.row(row);
        let n = r.len() as f64;
        let (mut sr, mut sg, mut sb) = (0.0, 0.0, 0.0);
        for px in r {
            sr += px[0] as f64;
            sg += px[1] as f64;
            sb += px[2] as f64;
        }
        Srgb::new(sr / n / 255.0, sg / n / 255.0, sb / n / 255.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> FrameMeta {
        FrameMeta {
            index: 0,
            start_time: 1.0,
            exposure: 50e-6,
            iso: 100.0,
            row_time: 10e-6,
        }
    }

    fn checker(width: usize, height: usize) -> Frame {
        let pixels = (0..width * height)
            .map(|i| {
                let v = if (i / width + i % width).is_multiple_of(2) {
                    255
                } else {
                    0
                };
                [v, v, v]
            })
            .collect();
        Frame::new(width, height, pixels, meta())
    }

    #[test]
    fn accessors() {
        let f = checker(4, 3);
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.pixel(0, 0), [255, 255, 255]);
        assert_eq!(f.pixel(0, 1), [0, 0, 0]);
        assert_eq!(f.row(1).len(), 4);
        assert_eq!(f.rows().count(), 3);
    }

    #[test]
    fn row_mean_of_checkerboard_is_half() {
        let f = checker(4, 2);
        let m = f.row_mean_srgb(0);
        assert!((m.r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mean_luma_of_checkerboard_is_half() {
        let f = checker(4, 4);
        assert!((f.mean_luma() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn row_windows_stagger_by_row_time() {
        let m = meta();
        let (a0, a1) = m.row_window(0);
        let (b0, _) = m.row_window(1);
        assert!((a0 - 1.0).abs() < 1e-15);
        assert!((a1 - a0 - 50e-6).abs() < 1e-15);
        assert!((b0 - a0 - 10e-6).abs() < 1e-15);
        assert!((m.row_timestamp(0) - (1.0 + 25e-6)).abs() < 1e-12);
    }

    #[test]
    fn ppm_export_has_correct_header_and_size() {
        let f = checker(4, 3);
        let mut buf = Vec::new();
        f.write_ppm(&mut buf).unwrap();
        let header_end = buf.windows(4).position(|w| w == b"255\n").unwrap() + 4;
        assert!(buf.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(buf.len() - header_end, 4 * 3 * 3, "RGB bytes after header");
        // First pixel is white, second black (checkerboard).
        assert_eq!(&buf[header_end..header_end + 6], &[255, 255, 255, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "pixel buffer size mismatch")]
    fn size_mismatch_panics() {
        let _ = Frame::new(4, 4, vec![[0u8; 3]; 15], meta());
    }

    #[test]
    fn pooled_frame_recycles_its_buffer_on_drop() {
        let pool = FramePool::new();
        let mut pixels = pool.take_pixels(4 * 3);
        pixels.extend_from_slice(&[[7u8, 8, 9]; 12]);
        let f = Frame::new_pooled(4, 3, pixels, meta(), pool.clone());
        assert_eq!(pool.idle_buffers(), 0, "buffer is owned by the frame");
        drop(f);
        assert_eq!(pool.idle_buffers(), 1, "drop returned the buffer");
        // Next capture-sized checkout is a hit.
        let _ = pool.take_pixels(12);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn pooled_clone_draws_from_and_returns_to_the_pool() {
        let pool = FramePool::new();
        let pixels: Vec<[u8; 3]> = (0..5 * 3).map(|i| [i as u8, 0, 0]).collect();
        let f = Frame::new_pooled(5, 3, pixels, meta(), pool.clone());
        let miss_base = pool.misses();
        // Warm the pool with one recycled buffer, then clone: served from
        // the pool, equal to the original, and equality ignores pooling.
        pool.recycle_pixels(Vec::with_capacity(15));
        let c = f.clone();
        assert_eq!(c, f);
        assert_eq!(pool.misses(), miss_base, "clone reused a pooled buffer");
        let unpooled = Frame::new(5, 3, (0..15).map(|i| [i as u8, 0, 0]).collect(), meta());
        assert_eq!(unpooled, f, "equality ignores the pool handle");
        // Every drop feeds the pool back.
        let idle_before = pool.idle_buffers();
        drop(c);
        drop(f);
        assert_eq!(pool.idle_buffers(), idle_before + 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_pixel_panics() {
        let f = checker(2, 2);
        let _ = f.pixel(2, 0);
    }
}
