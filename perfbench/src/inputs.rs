//! Seeded benchmark inputs.
//!
//! Seed [`CATALOG_SEED`] returns the stj-datagen catalog datasets
//! unchanged. Every other seed drives the catalog's own seeded
//! primitives (`tessellation`, `subdivide_levels`, `star_polygon`) with
//! the catalog's parameters and a seed-mixed random stream, so the
//! inputs are statistically equivalent to the catalog's but distinct.
//! The mixing leaves the catalog's streams untouched at the catalog
//! seed, which the tests use to show that the parameters here are the
//! catalog's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stj_datagen::star::{star_polygon, star_polygon_with_holes, StarParams};
use stj_datagen::tessellation::{subdivide_levels, tessellation};
use stj_datagen::{data_space, scaled_count, DatasetId};
use stj_geom::{Point, Polygon, Rect};

/// The seed that reproduces the catalog datasets.
pub const CATALOG_SEED: u64 = 0;

// Per-dataset stream tags, as in the catalog.
const PARKS_TAG: u64 = 0xE0;
const BUILDINGS_TAG: u64 = 0xE2;
const COUNTIES_TAG: u64 = 0x73;
const ZIPS_TAG: u64 = 0x74;

/// Strata per block of stratified draws.
const STRATA: usize = 64;

/// Stratified uniform draws: each block of [`STRATA`] consecutive draws
/// holds one value from each of [`STRATA`] equal-probability strata, in
/// random order, so a share drawn from them is met closely in every run.
#[derive(Default)]
pub struct Stratified {
    order: Vec<usize>,
}

impl Stratified {
    /// True with probability `p`.
    pub fn bool(&mut self, rng: &mut StdRng, p: f64) -> bool {
        if self.order.is_empty() {
            self.order = (0..STRATA).collect();
            for i in (1..STRATA).rev() {
                self.order.swap(i, rng.gen_range(0..=i));
            }
        }
        let stratum = self.order.pop().expect("refilled above");
        (stratum as f64 + rng.gen_range(0.0..1.0)) / (STRATA as f64) < p
    }
}

fn rng_for(tag: u64, seed: u64) -> StdRng {
    StdRng::seed_from_u64((0x5354_4A00 ^ tag) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// EU buildings (OBE) at `scale`, placed against the EU parks (OPE) of
/// the same scale and seed, as the catalog places them.
pub fn buildings(scale: f64, seed: u64) -> Vec<Polygon> {
    if seed == CATALOG_SEED {
        return stj_datagen::generate(DatasetId::OBE, scale);
    }
    seeded_buildings(scale, seed)
}

fn seeded_buildings(scale: f64, seed: u64) -> Vec<Polygon> {
    let parks = seeded_parks(scale, seed);
    let space = data_space();
    let mut rng = rng_for(BUILDINGS_TAG, seed);
    (0..scaled_count(DatasetId::OBE, scale))
        .map(|_| {
            let center = if !parks.is_empty() && rng.gen_bool(0.55) {
                let pm = parks[rng.gen_range(0..parks.len())].mbr();
                Point::new(
                    rng.gen_range(pm.min.x..=pm.max.x),
                    rng.gen_range(pm.min.y..=pm.max.y),
                )
            } else {
                uniform_point(&mut rng, &space, 2.0)
            };
            let params = StarParams {
                center,
                avg_radius: rng.gen_range(0.02..0.12),
                irregularity: rng.gen_range(0.1..0.5),
                spikiness: rng.gen_range(0.05..0.3),
                num_vertices: rng.gen_range(4..=14),
            };
            star_polygon(&mut rng, &params)
        })
        .collect()
}

/// EU parks (OPE) at `scale`: where the buildings cluster.
fn seeded_parks(scale: f64, seed: u64) -> Vec<Polygon> {
    let space = data_space();
    let mut rng = rng_for(PARKS_TAG, seed);
    (0..scaled_count(DatasetId::OPE, scale))
        .map(|_| {
            let radius = log_uniform(&mut rng, 0.012, 18.0);
            let n = ((16.0 * radius.powf(1.4) * log_uniform(&mut rng, 0.5, 2.0)) as usize)
                .clamp(4, 1400);
            let params = StarParams {
                center: uniform_point(&mut rng, &space, 20.0),
                avg_radius: radius,
                irregularity: rng.gen_range(0.3..0.8),
                spikiness: rng.gen_range(0.1..0.45),
                num_vertices: n,
            };
            if rng.gen_bool(0.08) {
                let holes = rng.gen_range(1..=2);
                star_polygon_with_holes(&mut rng, &params, holes, 8)
            } else {
                star_polygon(&mut rng, &params)
            }
        })
        .collect()
}

/// US counties (TC) and zip codes (TZ) at `scale`: one coverage, and
/// its two-level subdivision.
pub fn counties_and_zips(scale: f64, seed: u64) -> (Vec<Polygon>, Vec<Polygon>) {
    if seed == CATALOG_SEED {
        return (
            stj_datagen::generate(DatasetId::TC, scale),
            stj_datagen::generate(DatasetId::TZ, scale),
        );
    }
    let k = ((24.0 * scale.sqrt()) as usize).clamp(4, 96);
    let cov = tessellation(&mut rng_for(COUNTIES_TAG, seed), data_space(), k, 64, 0.3);
    let zips = subdivide_levels(&mut rng_for(ZIPS_TAG, seed), &cov, 0.5, 2);
    (cov.polygons(), zips)
}

/// At least `min_len` zip codes at `scale`: those of `seed`, then those
/// of further seeds derived from it, as many coverages as it takes.
pub fn zip_pool(scale: f64, seed: u64, min_len: usize) -> Vec<Polygon> {
    let mut pool = Vec::new();
    let mut k = 0u64;
    while pool.len() < min_len.max(1) {
        let s = seed.wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
        pool.extend(counties_and_zips(scale, s).1);
        k += 1;
    }
    pool
}

/// Log-uniform draw in `[lo, hi]`, as the catalog makes it.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    rng.gen_range(lo.ln()..=hi.ln()).exp()
}

fn uniform_point<R: Rng>(rng: &mut R, space: &Rect, margin: f64) -> Point {
    Point::new(
        rng.gen_range(space.min.x + margin..space.max.x - margin),
        rng.gen_range(space.min.y + margin..space.max.y - margin),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generators_use_the_catalog_parameters() {
        let scale = 0.02;
        assert_eq!(
            seeded_parks(scale, CATALOG_SEED),
            stj_datagen::generate(DatasetId::OPE, scale)
        );
        assert_eq!(
            seeded_buildings(scale, CATALOG_SEED),
            stj_datagen::generate(DatasetId::OBE, scale)
        );
        let k = ((24.0 * scale.sqrt()) as usize).clamp(4, 96);
        let cov = tessellation(&mut rng_for(COUNTIES_TAG, 0), data_space(), k, 64, 0.3);
        assert_eq!(cov.polygons(), stj_datagen::generate(DatasetId::TC, scale));
        assert_eq!(
            subdivide_levels(&mut rng_for(ZIPS_TAG, 0), &cov, 0.5, 2),
            stj_datagen::generate(DatasetId::TZ, scale)
        );
    }

    #[test]
    fn stratified_draws_meet_the_share_in_every_block() {
        let mut rng = rng_for(0, 1);
        let mut d = Stratified::default();
        for _ in 0..4 {
            let hits = (0..STRATA).filter(|_| d.bool(&mut rng, 0.25)).count();
            assert!((15..=17).contains(&hits), "{hits} of {STRATA}");
        }
    }

    #[test]
    fn other_seeds_give_other_inputs_of_the_same_shape() {
        let scale = 0.02;
        let (a, b) = (buildings(scale, 1), buildings(scale, 2));
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        assert_eq!(a, buildings(scale, 1));
        let (tc, tz) = counties_and_zips(scale, 3);
        assert_eq!(tz.len(), tc.len() * 16);
        assert_ne!(tc, counties_and_zips(scale, 0).0);
        let pool = zip_pool(scale, 3, tz.len() + 1);
        assert_eq!(pool.len(), 2 * tz.len());
        assert_eq!(pool[..tz.len()], tz[..]);
    }
}
