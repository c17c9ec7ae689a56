//! Native Rust reference implementations of the Table 3 kernels.
//!
//! These are independent of the DFG formulations in `imp-workloads`:
//! comparing them against the graph interpreter cross-checks both.

/// Black–Scholes European call price (Abramowitz–Stegun CNDF, as in the
/// PARSEC kernel).
pub fn blackscholes(
    spot: &[f64],
    strike: &[f64],
    time: &[f64],
    rate: f64,
    volatility: f64,
) -> Vec<f64> {
    spot.iter()
        .zip(strike)
        .zip(time)
        .map(|((&s, &k), &t)| {
            let den = volatility * t.sqrt();
            let d1 = ((s / k).ln() + (rate + volatility * volatility / 2.0) * t) / den;
            let d2 = d1 - den;
            s * cndf(d1) - k * (-rate * t).exp() * cndf(d2)
        })
        .collect()
}

/// The Abramowitz–Stegun cumulative normal distribution approximation.
pub fn cndf(x: f64) -> f64 {
    let ax = x.abs();
    let k1 = 1.0 / (1.0 + 0.231_641_9 * ax);
    let a = [
        0.319_381_530,
        -0.356_563_782,
        1.781_477_937,
        -1.821_255_978,
        1.330_274_429,
    ];
    let mut poly = a[4];
    for &coef in a[..4].iter().rev() {
        poly = poly * k1 + coef;
    }
    let poly = poly * k1;
    let pdf = 0.398_942_280_4 * (-x * x / 2.0).exp();
    let w = pdf * poly;
    if x < 0.0 {
        w
    } else {
        1.0 - w
    }
}

/// Canneal swap cost: Manhattan wire length per instance over `d` (dx,
/// dy) pairs. `deltas` is laid out `[2, d, n]` row-major.
pub fn canneal(deltas: &[f64], d: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut cost = 0.0;
            for axis in 0..2 {
                for j in 0..d {
                    cost += deltas[(axis * d + j) * n + i].abs();
                }
            }
            cost
        })
        .collect()
}

/// Fluidanimate SPH density: Σ over neighbours of (h² − r²)³ where
/// r² < h². `disp` is `[3, neighbours, n]` row-major.
pub fn fluidanimate(disp: &[f64], neighbours: usize, n: usize, h2: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut density = 0.0;
            for j in 0..neighbours {
                let mut r2 = 0.0;
                for axis in 0..3 {
                    let v = disp[(axis * neighbours + j) * n + i];
                    r2 += v * v;
                }
                if r2 < h2 {
                    let d = h2 - r2;
                    density += d * d * d;
                }
            }
            density
        })
        .collect()
}

/// Streamcluster squared L2 distance between vector pairs; `points` is
/// `[2, d, n]` row-major.
pub fn streamcluster(points: &[f64], d: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut dist = 0.0;
            for j in 0..d {
                let a = points[j * n + i];
                let b = points[(d + j) * n + i];
                dist += (a - b) * (a - b);
            }
            dist
        })
        .collect()
}

/// Backprop layer forward: `hidden[h][i] = σ(Σ_d w[h][d]·x[d][i])`.
/// `w` is `[hidden, dim]`, `x` is `[dim, n]`; output `[hidden, n]`.
pub fn backprop(w: &[f64], x: &[f64], hidden: usize, dim: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; hidden * n];
    for h in 0..hidden {
        for i in 0..n {
            let mut acc = 0.0;
            for d in 0..dim {
                acc += w[h * dim + d] * x[d * n + i];
            }
            out[h * n + i] = 1.0 / (1.0 + (-acc).exp());
        }
    }
    out
}

/// Hotspot step: `T' = T + c1·∇²T + c2·P` with zero (ambient) padding.
pub fn hotspot(temp: &[f64], power: &[f64], side: usize, c1: f64, c2: f64) -> Vec<f64> {
    let at = |r: isize, c: isize| -> f64 {
        if r < 0 || c < 0 || r >= side as isize || c >= side as isize {
            0.0
        } else {
            temp[r as usize * side + c as usize]
        }
    };
    let mut out = vec![0.0; side * side];
    for r in 0..side {
        for c in 0..side {
            let (ri, ci) = (r as isize, c as isize);
            let laplace = at(ri - 1, ci) + at(ri + 1, ci) + at(ri, ci - 1) + at(ri, ci + 1)
                - 4.0 * at(ri, ci);
            out[r * side + c] = temp[r * side + c] + c1 * laplace + c2 * power[r * side + c];
        }
    }
    out
}

/// Kmeans nearest-centroid assignment; `x` is `[d, n]`, `centroids`
/// `[k, d]`.
pub fn kmeans_assign(x: &[f64], centroids: &[f64], d: usize, k: usize, n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            for c in 0..k {
                let mut dist = 0.0;
                for j in 0..d {
                    let diff = x[j * n + i] - centroids[c * d + j];
                    dist += diff * diff;
                }
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cndf_properties() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-7);
        assert!(cndf(6.0) > 0.999_999);
        assert!(cndf(-6.0) < 1e-6);
        // Symmetry of the approximation.
        for &x in &[0.3, 1.1, 2.7] {
            assert!((cndf(x) + cndf(-x) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn blackscholes_known_value() {
        // S=42, K=40, T=0.5, r=0.1, σ=0.2 → C ≈ 4.76 (Hull's textbook
        // example).
        let c = blackscholes(&[42.0], &[40.0], &[0.5], 0.1, 0.2);
        assert!((c[0] - 4.76).abs() < 0.01, "got {}", c[0]);
    }

    #[test]
    fn hotspot_uniform_grid_cools_at_edges() {
        let side = 4;
        let temp = vec![10.0; side * side];
        let power = vec![0.0; side * side];
        let out = hotspot(&temp, &power, side, 0.1, 0.05);
        // Interior cells have zero Laplacian; corners lose two neighbours.
        assert!((out[5] - 10.0).abs() < 1e-12);
        assert!(out[0] < 10.0);
    }

    #[test]
    fn kmeans_assigns_nearest() {
        // Two 1-D centroids at 0 and 10.
        let x = vec![1.0, 9.0, 4.9, 5.1];
        let centroids = vec![0.0, 10.0];
        let assign = kmeans_assign(&x, &centroids, 1, 2, 4);
        assert_eq!(assign, vec![0, 1, 0, 1]);
    }

    #[test]
    fn streamcluster_zero_distance_for_equal_points() {
        // [2, 2, 1]: a = (3, 4), b = (3, 4).
        let pts = vec![3.0, 4.0, 3.0, 4.0];
        assert_eq!(streamcluster(&pts, 2, 1), vec![0.0]);
    }

    #[test]
    fn fluidanimate_gating() {
        // One neighbour inside the kernel radius, one outside.
        // Layout [3, 2, 1]: columns are neighbours.
        let disp = vec![0.05, 10.0, 0.0, 0.0, 0.0, 0.0];
        let density = fluidanimate(&disp, 2, 1, 0.012);
        let d = 0.012 - 0.0025;
        assert!((density[0] - d * d * d).abs() < 1e-12);
    }
}
