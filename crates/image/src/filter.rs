//! Grayscale filters: the §1 "linear filtering and median filtering"
//! examples, as engine-ready rules on 8-bit images.

use lattice_core::{Rule, Window};

/// 3×3 box blur (mean filter), rounding to nearest.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoxBlur;

impl Rule for BoxBlur {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        let sum: u32 = w.cells().iter().map(|&c| c as u32).sum();
        ((sum + 4) / 9) as u8
    }
    fn name(&self) -> &str {
        "box-blur"
    }
}

/// 3×3 median filter — the classic edge-preserving denoiser, §1's
/// example of a nonlinear local rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Median3;

impl Rule for Median3 {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        let mut v = [0u8; 9];
        v.copy_from_slice(w.cells());
        v.sort_unstable();
        v[4]
    }
    fn name(&self) -> &str {
        "median3"
    }
}

/// Binary threshold at a fixed level: `out = 255·[in ≥ level]`.
#[derive(Debug, Clone, Copy)]
pub struct Threshold(pub u8);

impl Rule for Threshold {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        if w.center() >= self.0 {
            255
        } else {
            0
        }
    }
    fn name(&self) -> &str {
        "threshold"
    }
}

/// Sobel gradient magnitude (|Gx| + |Gy|, clamped to 255).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sobel;

impl Rule for Sobel {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        let p = |dr: isize, dc: isize| w.at2(dr, dc) as i32;
        let gx = (p(-1, 1) + 2 * p(0, 1) + p(1, 1)) - (p(-1, -1) + 2 * p(0, -1) + p(1, -1));
        let gy = (p(1, -1) + 2 * p(1, 0) + p(1, 1)) - (p(-1, -1) + 2 * p(-1, 0) + p(-1, 1));
        (gx.abs() + gy.abs()).min(255) as u8
    }
    fn name(&self) -> &str {
        "sobel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::{evolve, Boundary, Coord, Grid, Shape};

    fn gradient_image() -> Grid<u8> {
        let shape = Shape::grid2(8, 8).unwrap();
        Grid::from_fn(shape, |c| (c.col() * 30) as u8)
    }

    #[test]
    fn blur_of_uniform_is_uniform() {
        let shape = Shape::grid2(6, 6).unwrap();
        let img: Grid<u8> = Grid::filled(shape, 90);
        let out = evolve(&img, &BoxBlur, Boundary::Periodic, 0, 1);
        assert!(out.as_slice().iter().all(|&p| p == 90));
    }

    #[test]
    fn blur_smooths_an_impulse() {
        let shape = Shape::grid2(5, 5).unwrap();
        let mut img: Grid<u8> = Grid::new(shape);
        img.set(Coord::c2(2, 2), 90);
        let out = evolve(&img, &BoxBlur, Boundary::Fixed(0), 0, 1);
        assert_eq!(out.get(Coord::c2(2, 2)), 10);
        assert_eq!(out.get(Coord::c2(1, 1)), 10);
        assert_eq!(out.get(Coord::c2(0, 0)), 0);
    }

    #[test]
    fn median_kills_salt_noise_blur_does_not() {
        let shape = Shape::grid2(7, 7).unwrap();
        let mut img: Grid<u8> = Grid::filled(shape, 100);
        img.set(Coord::c2(3, 3), 255); // salt speck
        let med = evolve(&img, &Median3, Boundary::Fixed(100), 0, 1);
        assert!(med.as_slice().iter().all(|&p| p == 100), "median removes the speck");
        let blur = evolve(&img, &BoxBlur, Boundary::Fixed(100), 0, 1);
        assert!(blur.get(Coord::c2(3, 3)) > 100, "blur only spreads it");
    }

    #[test]
    fn median_preserves_edges() {
        let img = gradient_image();
        // A step edge: left half 0, right half 200.
        let shape = Shape::grid2(8, 8).unwrap();
        let step = Grid::from_fn(shape, |c| if c.col() < 4 { 0u8 } else { 200 });
        let out = evolve(&step, &Median3, Boundary::Periodic, 0, 1);
        // Interior edge columns keep their levels (median of 3/6 split).
        assert_eq!(out.get(Coord::c2(4, 2)), 0);
        assert_eq!(out.get(Coord::c2(4, 5)), 200);
        drop(img);
    }

    #[test]
    fn threshold_binarizes() {
        let img = gradient_image();
        let out = evolve(&img, &Threshold(100), Boundary::Fixed(0), 0, 1);
        for c in 0..8 {
            let expect = if c * 30 >= 100 { 255 } else { 0 };
            assert_eq!(out.get(Coord::c2(3, c)), expect, "col {c}");
        }
    }

    #[test]
    fn sobel_fires_on_edges_only() {
        let shape = Shape::grid2(8, 8).unwrap();
        let step = Grid::from_fn(shape, |c| if c.col() < 4 { 0u8 } else { 200 });
        let out = evolve(&step, &Sobel, Boundary::Periodic, 0, 1);
        // Strong response at the edge columns…
        assert_eq!(out.get(Coord::c2(3, 3)), 255);
        assert_eq!(out.get(Coord::c2(3, 4)), 255);
        // …none in the flat interior.
        assert_eq!(out.get(Coord::c2(3, 1)), 0);
        assert_eq!(out.get(Coord::c2(3, 6)), 0);
    }

    #[test]
    fn filters_run_bit_exact_on_engines() {
        use lattice_engines_sim::{Pipeline, SpaEngine};
        let img = gradient_image();
        let rules: [&dyn Rule<S = u8>; 2] = [&Median3, &BoxBlur];
        for rule in rules {
            let name = rule.name();
            for depth in [1usize, 2] {
                let reference = evolve(&img, &rule, Boundary::Fixed(0), 0, depth as u64);
                let wsa = Pipeline::wide(2, depth).run(&rule, &img, 0).unwrap();
                assert_eq!(wsa.grid, reference, "{name} on WSA depth {depth}");
                let spa = SpaEngine::new(4, depth).run(&rule, &img, 0).unwrap();
                assert_eq!(spa.grid, reference, "{name} on SPA depth {depth}");
            }
        }
    }
}
