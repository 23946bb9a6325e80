//! 2D convolution with a 3x3 kernel — the paper's motivating domain is
//! image processing (the `Xpulpimg` extension exists for exactly these
//! kernels).
//!
//! Each core computes a band of output rows; the 3x3 stencil makes
//! neighboring bands share input rows, generating the cross-tile traffic
//! patterns matmul does not.

use mempool_isa::Program;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// The 3x3 convolution kernel (valid padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2d {
    width: u32,
    height: u32,
    weights: [u32; 9],
    /// Optional ReLU ceiling applied with `p.clip` after each output.
    relu_max: Option<u32>,
}

impl Conv2d {
    /// Creates a convolution over a `width x height` image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 3.
    pub fn new(width: u32, height: u32, weights: [u32; 9]) -> Self {
        assert!(width >= 3 && height >= 3, "image must be at least 3x3");
        Conv2d {
            width,
            height,
            weights,
            relu_max: None,
        }
    }

    /// Adds a clipped-ReLU activation (`out = clamp(out, 0, max)`),
    /// executed with the `Xpulpimg` `p.clip` instruction.
    pub fn with_relu(mut self, max: u32) -> Self {
        self.relu_max = Some(max);
        self
    }

    /// Output dimensions (valid padding shrinks by 2).
    pub(crate) fn out_dims(&self) -> (u32, u32) {
        (self.width - 2, self.height - 2)
    }

    fn layout(&self, cluster: &Cluster) -> (u32, u32, u32) {
        let base = cluster.storage().map().interleaved_base();
        let image_bytes = self.width * self.height * 4;
        // image, weights (9 words), output.
        (base, base + image_bytes, base + image_bytes + 9 * 4)
    }

    fn pixel(&self, x: u32, y: u32) -> u32 {
        (x * 13 + y * 7) % 23
    }

    /// Host-side reference output at `(ox, oy)`.
    pub(crate) fn expected(&self, ox: u32, oy: u32) -> u32 {
        let mut acc = 0u32;
        for ky in 0..3 {
            for kx in 0..3 {
                acc = acc.wrapping_add(
                    self.weights[(ky * 3 + kx) as usize].wrapping_mul(self.pixel(ox + kx, oy + ky)),
                );
            }
        }
        match self.relu_max {
            Some(max) => (acc as i32).clamp(0, max as i32) as u32,
            None => acc,
        }
    }
}

impl Kernel for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let cores = cluster.config().num_cores();
        let (_, out_h) = self.out_dims();
        if out_h % cores != 0 {
            return Err(KernelError::BadShape {
                detail: format!("output height {out_h} must be a multiple of {cores} cores"),
            });
        }
        let rows_per_core = out_h / cores;
        let (img, wts, out) = self.layout(cluster);
        let (out_w, _) = self.out_dims();
        let w4 = self.width * 4;
        // The inner loop keeps the nine weights in registers (s2..s9, a2)
        // and walks three input-row pointers.
        let src = format!(
            r#"
                csrr t0, mhartid
                li   t1, {rows_per_core}
                mul  t2, t0, t1            # first output row
                add  t3, t2, t1            # end output row
                # load the nine weights
                li   a0, {wts}
                lw   s2, 0(a0)
                lw   s3, 4(a0)
                lw   s4, 8(a0)
                lw   s5, 12(a0)
                lw   s6, 16(a0)
                lw   s7, 20(a0)
                lw   s8, 24(a0)
                lw   s9, 28(a0)
                lw   a2, 32(a0)
                {relu_setup}
            row_loop:
                li   t4, 0                 # output column
            col_loop:
                # row pointers: image + (row + ky) * w4 + col * 4
                li   s0, {w4}
                mul  s1, t2, s0
                slli a3, t4, 2
                add  s1, s1, a3
                li   a4, {img}
                add  s1, s1, a4            # row 0 pointer
                add  s10, s1, s0           # row 1
                add  s11, s10, s0          # row 2
                li   a5, 0                 # acc
                lw   a6, 0(s1)
                p.mac a5, a6, s2
                lw   a6, 4(s1)
                p.mac a5, a6, s3
                lw   a6, 8(s1)
                p.mac a5, a6, s4
                lw   a6, 0(s10)
                p.mac a5, a6, s5
                lw   a6, 4(s10)
                p.mac a5, a6, s6
                lw   a6, 8(s10)
                p.mac a5, a6, s7
                lw   a6, 0(s11)
                p.mac a5, a6, s8
                lw   a6, 4(s11)
                p.mac a5, a6, s9
                lw   a6, 8(s11)
                p.mac a5, a6, a2
                {relu_apply}
                # store output[row][col]
                li   a7, {out_w}
                mul  a7, t2, a7
                add  a7, a7, t4
                slli a7, a7, 2
                li   a6, {out}
                add  a7, a7, a6
                sw   a5, 0(a7)
                addi t4, t4, 1
                li   a6, {out_w}
                blt  t4, a6, col_loop
                addi t2, t2, 1
                blt  t2, t3, row_loop
                wfi
            "#,
            relu_setup = match self.relu_max {
                Some(max) => format!("li   t6, {max}"),
                None => String::new(),
            },
            relu_apply = match self.relu_max {
                Some(_) => "p.clip a5, a5, t6".to_string(),
                None => String::new(),
            },
        );
        Ok(Program::assemble(&src)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let (img, wts, out) = self.layout(cluster);
        for y in 0..self.height {
            for x in 0..self.width {
                cluster.write_spm_word(img + (y * self.width + x) * 4, self.pixel(x, y))?;
            }
        }
        for (k, &w) in self.weights.iter().enumerate() {
            cluster.write_spm_word(wts + k as u32 * 4, w)?;
        }
        let (out_w, out_h) = self.out_dims();
        for i in 0..out_w * out_h {
            cluster.write_spm_word(out + i * 4, 0)?;
        }
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, _, out) = self.layout(cluster);
        let (out_w, out_h) = self.out_dims();
        for oy in 0..out_h {
            for ox in 0..out_w {
                let got = cluster.read_spm_word(out + (oy * out_w + ox) * 4)?;
                let expected = self.expected(ox, oy);
                if got != expected {
                    return Err(KernelError::Mismatch {
                        detail: format!("out[{oy}][{ox}] = {got}, expected {expected}"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::ClusterConfig;
    use mempool_sim::SimParams;

    fn cluster() -> Cluster {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(256)
            .build()
            .unwrap();
        Cluster::new(cfg, SimParams::default())
    }

    #[test]
    fn identity_kernel_copies_the_center() {
        let mut weights = [0u32; 9];
        weights[4] = 1; // center tap
        let conv = Conv2d::new(18, 18, weights);
        let mut c = cluster();
        conv.run(&mut c, 10_000_000).expect("conv2d failed");
    }

    #[test]
    fn box_blur_sums_the_neighborhood() {
        let conv = Conv2d::new(34, 18, [1; 9]);
        let mut c = cluster();
        conv.run(&mut c, 10_000_000).expect("conv2d failed");
    }

    #[test]
    fn weighted_kernel_matches_reference() {
        let conv = Conv2d::new(18, 34, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut c = cluster();
        conv.run(&mut c, 10_000_000).expect("conv2d failed");
    }

    #[test]
    fn relu_clips_through_p_clip() {
        // Box blur of values up to 9*22 = ~200; clip at 50 forces the
        // ceiling on many outputs.
        let conv = Conv2d::new(18, 18, [1; 9]).with_relu(50);
        let mut c = cluster();
        conv.run(&mut c, 10_000_000).expect("clipped conv2d failed");
        // At least one output actually hit the ceiling, so the clip path
        // was exercised.
        let (out_w, out_h) = conv.out_dims();
        let clipped = (0..out_h)
            .flat_map(|y| (0..out_w).map(move |x| (x, y)))
            .filter(|&(x, y)| conv.expected(x, y) == 50)
            .count();
        assert!(clipped > 0, "test values never reached the ReLU ceiling");
    }

    #[test]
    fn rejects_band_count_mismatch() {
        let conv = Conv2d::new(18, 20, [1; 9]); // out_h = 18, not /16
        let c = cluster();
        assert!(matches!(
            conv.program(&c),
            Err(KernelError::BadShape { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn tiny_images_panic() {
        let _ = Conv2d::new(2, 8, [0; 9]);
    }
}
