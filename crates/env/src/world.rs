//! The [`World`]: one simulated venue with zones, RF infrastructure, a floor
//! plan and truth-level observation queries.
//!
//! The world answers "what would a perfect receiver at point `p` measure?".
//! Device imperfections (RSSI offsets between phone models, GPS fix error,
//! IMU drift) are layered on top by `uniloc-sensors`.

use crate::noise::{NoiseMemo, SpatialNoise};
use crate::radio::{self, AccessPoint, ApId, CellTower, TowerId};
use crate::zone::{EnvKind, Zone};
use uniloc_rng::Rng;
use uniloc_geom::{FloorPlan, GeoCoord, GeoFrame, Point, Rect, Segment, Wall};

/// Salt namespaces so shadowing fields of APs and towers never collide.
const WIFI_SALT: u64 = 0x5749_4649; // "WIFI"
const CELL_SALT: u64 = 0x4345_4C4C; // "CELL"
const SAT_SALT: u64 = 0x5341_5400; // "SAT"

/// Environment kind assumed outside every zone.
const DEFAULT_KIND: EnvKind = EnvKind::OpenSpace;

/// Geographic coordinate (latitude, longitude) of every map's origin: the
/// paper's NTU campus.
const GEO_ORIGIN: (f64, f64) = (1.3483, 103.6831);

/// A complete simulated venue.
///
/// Build one with [`WorldBuilder`] or use the prebuilt scenarios in
/// [`crate::campus`] and [`crate::venues`].
///
/// # Examples
///
/// ```
/// use uniloc_env::{EnvKind, WorldBuilder};
/// use uniloc_geom::{Point, Rect};
///
/// let world = WorldBuilder::new("demo", 1)
///     .zone_rect("room", EnvKind::Office, Rect::new(Point::new(0.0, 0.0), Point::new(20.0, 10.0))?, 1)
///     .access_point(Point::new(10.0, 5.0))
///     .build();
/// assert!(world.is_indoor(Point::new(5.0, 5.0)));
/// assert!(!world.is_indoor(Point::new(50.0, 50.0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct World {
    name: String,
    zones: Vec<Zone>,
    floorplan: FloorPlan,
    aps: Vec<AccessPoint>,
    towers: Vec<CellTower>,
    shadowing: SpatialNoise,
    /// Macro-cell shadowing varies over tens of meters (much longer
    /// correlation than WiFi's room-scale fading).
    cell_shadowing: SpatialNoise,
    geo_frame: GeoFrame,
    bounds: Rect,
}

impl World {
    /// Venue name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The floor plan (walls / corridors / landmarks).
    pub fn floorplan(&self) -> &FloorPlan {
        &self.floorplan
    }

    /// The geographic frame anchoring this map.
    pub fn geo_frame(&self) -> &GeoFrame {
        &self.geo_frame
    }

    /// Bounding rectangle of the venue.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The zone containing `p` (highest priority wins), if any.
    pub fn zone_at(&self, p: Point) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| z.contains(p))
            .max_by_key(|z| z.priority())
    }

    /// Environment kind at `p` ([`EnvKind::OpenSpace`] outside all
    /// zones).
    pub fn kind_at(&self, p: Point) -> EnvKind {
        self.zone_at(p).map_or(DEFAULT_KIND, Zone::kind)
    }

    /// Ground-truth indoor/outdoor flag ("all the places with roofs" are
    /// indoor).
    pub fn is_indoor(&self, p: Point) -> bool {
        self.kind_at(p).is_roofed()
    }

    /// Number of walls a straight ray from `a` to `b` crosses.
    pub fn wall_crossings(&self, a: Point, b: Point) -> usize {
        let ray = Segment::new(a, b);
        self.floorplan
            .walls()
            .iter()
            .filter(|w| w.segment.intersects(&ray))
            .count()
    }

    /// A fresh [`ShadowMemo`] for this world's two shadowing fields. Pass
    /// it to every [`World::wifi_observation`], [`World::cell_observation`],
    /// [`World::sky_view`] and [`World::visible_satellites`] call on this
    /// world; it answers exactly as the fields themselves would.
    pub fn shadow_memo(&self) -> ShadowMemo {
        let wifi = self.aps.iter().map(|ap| WIFI_SALT ^ u64::from(ap.id.0));
        let cell = self.towers.iter().map(|t| CELL_SALT ^ u64::from(t.id.0));
        let fine = wifi.clone().chain([SAT_SALT]).collect();
        ShadowMemo {
            fine: NoiseMemo::new(self.shadowing, fine, self.bounds),
            coarse: NoiseMemo::new(self.cell_shadowing, wifi.chain(cell).collect(), self.bounds),
        }
    }

    /// Whether `memo` answers for this world: same fields and stream
    /// counts. AP and tower ids are [`WorldBuilder`] indices, so the counts
    /// fix every salt.
    fn owns(&self, memo: &ShadowMemo) -> bool {
        *memo.fine.field() == self.shadowing
            && *memo.coarse.field() == self.cell_shadowing
            && memo.fine.streams() == self.aps.len() + 1
            && memo.coarse.streams() == self.aps.len() + self.towers.len()
    }

    /// Truth-level WiFi scan at `p`: every audible AP with its RSS in dBm,
    /// sorted by id. Includes stable shadowing plus fresh temporal fading.
    pub fn wifi_observation(
        &self,
        p: Point,
        memo: &mut ShadowMemo,
        rng: &mut Rng,
    ) -> Vec<(ApId, f64)> {
        assert!(self.owns(memo), "shadow memo from another world");
        let kind = self.kind_at(p);
        let extra = kind.wifi_extra_loss_db();
        let means = self.aps.iter().map(|ap| self.wifi_path_rss(ap, p) - extra);
        self.wifi_scan(p, kind, means, memo, rng)
    }

    /// Truth-level cellular scan at `p`, sorted by id.
    pub fn cell_observation(
        &self,
        p: Point,
        memo: &mut ShadowMemo,
        rng: &mut Rng,
    ) -> Vec<(TowerId, f64)> {
        assert!(self.owns(memo), "shadow memo from another world");
        let pen = self.kind_at(p).cellular_penetration_loss_db();
        let means = self.towers.iter().map(|t| radio::cell_mean_rss(t.position.distance(p), pen));
        self.cell_scan(p, means, memo, rng)
    }

    /// Mean WiFi RSS of `ap` at `p` through the walls between them,
    /// before the zone's extra loss.
    fn wifi_path_rss(&self, ap: &AccessPoint, p: Point) -> f64 {
        radio::wifi_mean_rss(ap.position.distance(p), self.wall_crossings(ap.position, p))
    }

    /// The WiFi scan at `p`, in zone kind `kind`, from each AP's mean RSS
    /// in world order: the one loop of [`World::wifi_observation`] and
    /// [`World::wifi_survey`].
    fn wifi_scan(
        &self,
        p: Point,
        kind: EnvKind,
        means: impl Iterator<Item = f64>,
        memo: &mut ShadowMemo,
        rng: &mut Rng,
    ) -> Vec<(ApId, f64)> {
        // Indoor shadowing decorrelates at room scale (walls, furniture);
        // outdoor shadowing varies over tens of meters.
        let (lattice, temporal) = if kind.is_roofed() {
            (&mut memo.fine, radio::WIFI_TEMPORAL_SIGMA_DB)
        } else {
            (&mut memo.coarse, radio::WIFI_TEMPORAL_OUTDOOR_SIGMA_DB)
        };
        let scale = radio::WIFI_SHADOWING_SIGMA_DB / lattice.field().sigma().max(1e-9);
        let ids = self.aps.iter().map(|ap| ap.id);
        let shadow = |i| lattice.sample(i, p) * scale;
        observe(ids, means, shadow, temporal, radio::WIFI_FLOOR_DBM, rng)
    }

    /// The cellular scan at `p` from each tower's mean RSS in world order:
    /// the one loop of [`World::cell_observation`] and
    /// [`World::cell_survey`].
    fn cell_scan(
        &self,
        p: Point,
        means: impl Iterator<Item = f64>,
        memo: &mut ShadowMemo,
        rng: &mut Rng,
    ) -> Vec<(TowerId, f64)> {
        let scale = radio::CELL_SHADOWING_SIGMA_DB / self.cell_shadowing.sigma().max(1e-9);
        let ids = self.towers.iter().map(|t| t.id);
        let first = self.aps.len();
        let shadow = |j| memo.coarse.sample(first + j, p) * scale;
        observe(ids, means, shadow, radio::CELL_TEMPORAL_SIGMA_DB, radio::CELL_FLOOR_DBM, rng)
    }

    /// The seed-independent half of a survey at `points`: each point's zone
    /// kind and every transmitter's mean RSS there ([`SurveyPlan`]).
    pub fn survey_plan(&self, points: Vec<Point>) -> SurveyPlan {
        let kinds: Vec<EnvKind> = points.iter().map(|&p| self.kind_at(p)).collect();
        let mut wifi_means = Vec::with_capacity(points.len() * self.aps.len());
        let mut cell_means = Vec::with_capacity(points.len() * self.towers.len());
        for (&p, kind) in points.iter().zip(&kinds) {
            let extra = kind.wifi_extra_loss_db();
            wifi_means.extend(self.aps.iter().map(|ap| self.wifi_path_rss(ap, p) - extra));
            let pen = kind.cellular_penetration_loss_db();
            cell_means.extend(
                self.towers.iter().map(|t| radio::cell_mean_rss(t.position.distance(p), pen)),
            );
        }
        SurveyPlan {
            zones: self.zones.clone(),
            walls: self.floorplan.walls().to_vec(),
            aps: self.aps.clone(),
            towers: self.towers.clone(),
            spacings: None,
            points,
            kinds,
            wifi_means,
            cell_means,
        }
    }

    /// Whether `plan` was computed over this world's geometry: the same
    /// zones, walls, access points and towers, compared with `==`. The
    /// shadowing seed is not part of it.
    pub fn owns_plan(&self, plan: &SurveyPlan) -> bool {
        plan.zones == self.zones
            && plan.walls == self.floorplan.walls()
            && plan.aps == self.aps
            && plan.towers == self.towers
    }

    /// The WiFi survey of `plan`: [`World::wifi_observation`] at each of
    /// its points in order, bit for bit and draw for draw, with the means
    /// read from the plan.
    ///
    /// # Panics
    ///
    /// Panics when this world does not own `plan` ([`World::owns_plan`])
    /// or `memo`.
    pub fn wifi_survey(
        &self,
        plan: &SurveyPlan,
        memo: &mut ShadowMemo,
        rng: &mut Rng,
    ) -> Vec<Vec<(ApId, f64)>> {
        assert!(self.owns(memo), "shadow memo from another world");
        assert!(self.owns_plan(plan), "survey plan from another world");
        let n = self.aps.len();
        (0..plan.points.len())
            .map(|i| {
                let means = plan.wifi_means[i * n..(i + 1) * n].iter().copied();
                self.wifi_scan(plan.points[i], plan.kinds[i], means, memo, rng)
            })
            .collect()
    }

    /// The cellular survey of `plan`: [`World::cell_observation`] at each
    /// of its points in order, bit for bit and draw for draw.
    ///
    /// # Panics
    ///
    /// As [`World::wifi_survey`].
    pub fn cell_survey(
        &self,
        plan: &SurveyPlan,
        memo: &mut ShadowMemo,
        rng: &mut Rng,
    ) -> Vec<Vec<(TowerId, f64)>> {
        assert!(self.owns(memo), "shadow memo from another world");
        assert!(self.owns_plan(plan), "survey plan from another world");
        let n = self.towers.len();
        (0..plan.points.len())
            .map(|i| {
                let means = plan.cell_means[i * n..(i + 1) * n].iter().copied();
                self.cell_scan(plan.points[i], means, memo, rng)
            })
            .collect()
    }

    /// Sky-view fraction at `p` (from the zone kind, smoothly dithered so
    /// satellite counts vary within a zone).
    pub fn sky_view(&self, p: Point, memo: &mut ShadowMemo) -> f64 {
        assert!(self.owns(memo), "shadow memo from another world");
        let base = self.kind_at(p).sky_view();
        let dither =
            memo.fine.sample(self.aps.len(), p) / self.shadowing.sigma().max(1e-9) * 0.05;
        (base + dither).clamp(0.0, 1.0)
    }

    /// Number of GNSS satellites visible at `p`. Outdoors this averages
    /// ~10-11 (the paper measures 10.9); indoors it collapses.
    pub fn visible_satellites(&self, p: Point, memo: &mut ShadowMemo, rng: &mut Rng) -> u32 {
        let sky = self.sky_view(p, memo);
        let mean = 12.0 * sky;
        let n = mean + rng.standard_normal() * 0.8;
        n.round().clamp(0.0, 14.0) as u32
    }

    /// Ambient light level in lux (daytime).
    pub fn ambient_light(&self, p: Point, rng: &mut Rng) -> f64 {
        let base = self.kind_at(p).base_light_lux();
        (base * (1.0 + 0.15 * rng.standard_normal())).max(0.0)
    }

    /// Magnetic disturbance level in `[0, 1]` at `p`.
    pub fn magnetic_disturbance(&self, p: Point) -> f64 {
        self.kind_at(p).magnetic_disturbance()
    }
}

/// A [`World`]'s shadowing-lattice nodes, memoized ([`World::shadow_memo`]).
///
/// One [`NoiseMemo`] per field, each covering the lattice nodes of
/// [`World::bounds`]: the 4 m field (indoor WiFi per AP, then satellite
/// dither) and the 22 m field (outdoor WiFi per AP, then cellular per
/// tower), streams in world order. Arrays are allocated per stream on
/// first use and filled node by node, so a hub that takes four frames
/// hashes only the nodes those frames read. A memo changes how often a
/// node is hashed, never a value: observations through a warm memo equal
/// those through a fresh one bit for bit. Each `SensorHub` owns one;
/// memos are never shared between threads.
#[derive(Debug)]
pub struct ShadowMemo {
    fine: NoiseMemo,
    coarse: NoiseMemo,
}

/// The one observation loop: per transmitter, in world order, its mean
/// RSS plus its shadowing plus a fresh fading draw, kept when at or above
/// the receiver floor.
fn observe<Id>(
    ids: impl Iterator<Item = Id>,
    means: impl Iterator<Item = f64>,
    mut shadow: impl FnMut(usize) -> f64,
    fading_sigma: f64,
    floor: f64,
    rng: &mut Rng,
) -> Vec<(Id, f64)> {
    let mut out = Vec::new();
    for (j, (id, mean)) in ids.zip(means).enumerate() {
        let shadow = shadow(j);
        let fading = rng.standard_normal() * fading_sigma;
        let rss = mean + shadow + fading;
        if rss >= floor {
            out.push((id, rss));
        }
    }
    out
}

/// The seed-independent half of a radio-map survey
/// ([`World::survey_plan`], [`Scenario::survey_plan`](crate::Scenario::survey_plan)).
///
/// A survey scan at a point is, per transmitter, its mean RSS plus
/// shadowing plus fresh fading. The mean (path loss over the distance,
/// the walls crossed, the zone's extra or penetration loss) depends on the
/// venue's geometry alone; the shadowing comes from the world's seeded
/// fields and the fading from the caller's RNG. A plan holds the survey
/// points, each point's [`EnvKind`] and every AP's and tower's mean there
/// (row-major, one row per point), so every walker of a venue, each with
/// its own seed, can survey from one plan read-only and do only the
/// seeded half. [`World::wifi_survey`] and [`World::cell_survey`] run the
/// same loop as [`World::wifi_observation`] and [`World::cell_observation`]
/// and return their bits.
///
/// The plan keeps the geometry it was computed over. A world with other
/// zones, walls, APs or towers does not own it ([`World::owns_plan`]) and
/// its surveys panic, as they do for a [`ShadowMemo`] of another world; a
/// plan built at other spacings fails
/// [`Scenario::assert_plan`](crate::Scenario::assert_plan).
#[derive(Debug, Clone)]
pub struct SurveyPlan {
    zones: Vec<Zone>,
    walls: Vec<Wall>,
    aps: Vec<AccessPoint>,
    towers: Vec<CellTower>,
    /// Bits of the indoor and outdoor spacings the points were laid at;
    /// `None` for a plan over given points.
    spacings: Option<[u64; 2]>,
    points: Vec<Point>,
    kinds: Vec<EnvKind>,
    wifi_means: Vec<f64>,
    cell_means: Vec<f64>,
}

impl SurveyPlan {
    /// The survey points, in survey order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// This plan, marked as laid at these spacings.
    pub(crate) fn laid_at(mut self, indoor_spacing: f64, outdoor_spacing: f64) -> Self {
        self.spacings = Some([indoor_spacing.to_bits(), outdoor_spacing.to_bits()]);
        self
    }

    /// Whether the plan was laid at these spacings, bit for bit.
    pub(crate) fn is_laid_at(&self, indoor_spacing: f64, outdoor_spacing: f64) -> bool {
        self.spacings == Some([indoor_spacing.to_bits(), outdoor_spacing.to_bits()])
    }
}

/// Builder for [`World`].
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    name: String,
    seed: u64,
    zones: Vec<Zone>,
    floorplan: FloorPlan,
    aps: Vec<AccessPoint>,
    towers: Vec<CellTower>,
    next_ap: u32,
    next_tower: u32,
}

impl WorldBuilder {
    /// Starts a world named `name`; `seed` fixes the shadowing fields.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        WorldBuilder {
            name: name.into(),
            seed,
            zones: Vec::new(),
            floorplan: FloorPlan::new(),
            aps: Vec::new(),
            towers: Vec::new(),
            next_ap: 0,
            next_tower: 0,
        }
    }

    /// Adds a polygonal zone.
    pub fn zone(mut self, z: Zone) -> Self {
        self.zones.push(z);
        self
    }

    /// Adds a rectangular zone.
    pub fn zone_rect(self, name: &str, kind: EnvKind, rect: Rect, priority: i32) -> Self {
        self.zone(Zone::new(name, kind, rect.to_polygon(), priority))
    }

    /// Replaces the floor plan.
    pub fn floorplan(mut self, plan: FloorPlan) -> Self {
        self.floorplan = plan;
        self
    }

    /// Adds an access point with an auto-assigned id.
    pub fn access_point(mut self, position: Point) -> Self {
        self.aps.push(AccessPoint::new(ApId(self.next_ap), position));
        self.next_ap += 1;
        self
    }

    /// Adds a cell tower with an auto-assigned id.
    pub fn cell_tower(mut self, position: Point) -> Self {
        self.towers.push(CellTower::new(TowerId(self.next_tower), position));
        self.next_tower += 1;
        self
    }

    /// Finalizes the world.
    pub fn build(self) -> World {
        // Bounds cover zones, APs and a margin.
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        fn grow(min: &mut Point, max: &mut Point, p: Point) {
            *min = Point::new(min.x.min(p.x), min.y.min(p.y));
            *max = Point::new(max.x.max(p.x), max.y.max(p.y));
        }
        for z in &self.zones {
            let bb = z.polygon().bounding_rect();
            grow(&mut min, &mut max, bb.min());
            grow(&mut min, &mut max, bb.max());
        }
        for ap in &self.aps {
            grow(&mut min, &mut max, ap.position);
        }
        if !min.is_finite() || !max.is_finite() {
            grow(&mut min, &mut max, Point::origin());
            grow(&mut min, &mut max, Point::new(100.0, 100.0));
        }
        let bounds = Rect::new(min, max).expect("finite bounds").expanded(20.0);
        let geo_origin = GeoCoord::new(GEO_ORIGIN.0, GEO_ORIGIN.1).expect("valid NTU anchor");
        World {
            name: self.name,
            zones: self.zones,
            floorplan: self.floorplan,
            aps: self.aps,
            towers: self.towers,
            // Unit-sigma fields, scaled per-use by each channel's sigma.
            // WiFi shadowing decorrelates at room scale; macro-cell
            // shadowing at block scale.
            shadowing: SpatialNoise::new(self.seed, 4.0, 1.0),
            cell_shadowing: SpatialNoise::new(self.seed.wrapping_add(0xCE11), 22.0, 1.0),
            geo_frame: GeoFrame::new(geo_origin, Point::origin()),
            bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_world() -> World {
        let office = Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 10.0)).unwrap();
        let basement = Rect::new(Point::new(30.0, 0.0), Point::new(60.0, 10.0)).unwrap();
        WorldBuilder::new("demo", 42)
            .zone_rect("office", EnvKind::Office, office, 1)
            .zone_rect("basement", EnvKind::Basement, basement, 1)
            .access_point(Point::new(5.0, 5.0))
            .access_point(Point::new(25.0, 5.0))
            .cell_tower(Point::new(250.0, 150.0))
            .cell_tower(Point::new(-400.0, 200.0))
            .build()
    }

    #[test]
    fn zone_lookup_and_default() {
        let w = demo_world();
        assert_eq!(w.kind_at(Point::new(5.0, 5.0)), EnvKind::Office);
        assert_eq!(w.kind_at(Point::new(45.0, 5.0)), EnvKind::Basement);
        assert_eq!(w.kind_at(Point::new(200.0, 200.0)), EnvKind::OpenSpace);
        assert!(w.is_indoor(Point::new(5.0, 5.0)));
        assert!(!w.is_indoor(Point::new(200.0, 200.0)));
    }

    #[test]
    fn priority_resolves_overlap() {
        let outer = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
        let inner = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0)).unwrap();
        let w = WorldBuilder::new("overlap", 1)
            .zone_rect("campus", EnvKind::OpenSpace, outer, 0)
            .zone_rect("building", EnvKind::Office, inner, 5)
            .build();
        assert_eq!(w.kind_at(Point::new(50.0, 50.0)), EnvKind::Office);
        assert_eq!(w.kind_at(Point::new(10.0, 10.0)), EnvKind::OpenSpace);
    }

    #[test]
    fn wifi_observation_in_office_vs_basement() {
        let w = demo_world();
        let mut rng = Rng::seed_from_u64(1);
        let mut memo = w.shadow_memo();
        let office_scan = w.wifi_observation(Point::new(5.0, 5.0), &mut memo, &mut rng);
        assert!(!office_scan.is_empty(), "office must hear APs");
        // Basement extra loss (35 dB) plus distance kills WiFi.
        let basement_scan = w.wifi_observation(Point::new(55.0, 5.0), &mut memo, &mut rng);
        assert!(
            basement_scan.len() < office_scan.len(),
            "basement must hear fewer APs than the office"
        );
    }

    #[test]
    fn wifi_rss_is_repeatable_up_to_fading() {
        let w = demo_world();
        let p = Point::new(10.0, 5.0);
        let mut r1 = Rng::seed_from_u64(10);
        let mut r2 = Rng::seed_from_u64(20);
        let mut memo = w.shadow_memo();
        let s1 = w.wifi_observation(p, &mut memo, &mut r1);
        let s2 = w.wifi_observation(p, &mut memo, &mut r2);
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.0, b.0);
            // Shadowing is identical; only temporal fading differs.
            assert!(
                (a.1 - b.1).abs() < 6.0 * radio::WIFI_TEMPORAL_SIGMA_DB,
                "revisit RSS differs too much: {} vs {}",
                a.1,
                b.1
            );
        }
    }

    #[test]
    fn cell_observation_reaches_indoors() {
        let w = demo_world();
        let mut rng = Rng::seed_from_u64(2);
        let mut memo = w.shadow_memo();
        // Basement still hears at least one macro tower (they are loud).
        // Temporal fading can drop a single scan below the floor, so the
        // claim is over a handful of draws rather than one.
        let heard = (0..8)
            .map(|_| w.cell_observation(Point::new(45.0, 5.0), &mut memo, &mut rng).len())
            .sum::<usize>();
        assert!(heard > 0);
    }

    #[test]
    fn satellites_follow_sky_view() {
        let w = demo_world();
        let mut rng = Rng::seed_from_u64(3);
        let mut memo = w.shadow_memo();
        let mut outdoor_total = 0;
        let mut basement_total = 0;
        for _ in 0..50 {
            outdoor_total += w.visible_satellites(Point::new(200.0, 200.0), &mut memo, &mut rng);
            basement_total += w.visible_satellites(Point::new(45.0, 5.0), &mut memo, &mut rng);
        }
        let outdoor_avg = outdoor_total as f64 / 50.0;
        let basement_avg = basement_total as f64 / 50.0;
        assert!(outdoor_avg > 9.0, "outdoor avg {outdoor_avg}");
        assert!(basement_avg < 2.0, "basement avg {basement_avg}");
    }

    #[test]
    fn light_separates_indoor_outdoor() {
        let w = demo_world();
        let mut rng = Rng::seed_from_u64(4);
        let indoor = w.ambient_light(Point::new(5.0, 5.0), &mut rng);
        let outdoor = w.ambient_light(Point::new(200.0, 200.0), &mut rng);
        assert!(outdoor > indoor * 5.0);
    }

    #[test]
    fn wall_crossings_counted() {
        let mut plan = FloorPlan::new();
        plan.add_wall(Point::new(10.0, -5.0), Point::new(10.0, 5.0));
        plan.add_wall(Point::new(20.0, -5.0), Point::new(20.0, 5.0));
        let w = WorldBuilder::new("walls", 1).floorplan(plan).build();
        assert_eq!(w.wall_crossings(Point::new(0.0, 0.0), Point::new(30.0, 0.0)), 2);
        assert_eq!(w.wall_crossings(Point::new(0.0, 0.0), Point::new(15.0, 0.0)), 1);
        assert_eq!(w.wall_crossings(Point::new(11.0, 0.0), Point::new(19.0, 0.0)), 0);
    }

    #[test]
    fn bounds_cover_zones() {
        let w = demo_world();
        assert!(w.bounds().contains(Point::new(0.0, 0.0)));
        assert!(w.bounds().contains(Point::new(60.0, 10.0)));
    }

    #[test]
    fn geo_frame_round_trips() {
        let w = demo_world();
        let p = Point::new(12.0, 34.0);
        let g = w.geo_frame().to_geo(p);
        let back = w.geo_frame().to_local(g);
        assert!((back.x - p.x).abs() < 1e-9);
        assert!((back.y - p.y).abs() < 1e-9);
    }
}
