//! Corridor environments and geometric queries.
//!
//! Two environments are modeled after Section 4.2.3 / Figure 9:
//!
//! * `tunnel` — a straight corridor 50 m long and 3.2 m wide (boundaries at
//!   y = ±1.6 m, as in Figure 10).
//! * `s-shape` — an "S" shaped corridor of ~80 m; the mission is completed
//!   upon reaching x = 80 (Figure 11). The map is wider (6 m) but requires
//!   constant correction.
//!
//! Worlds are built from 2-D wall segments extruded to a fixed height, plus
//! a centerline polyline used for ground-truth perception queries (lateral
//! offset and heading error relative to the trail).

use rose_sim_core::math::{clamp, wrap_angle, Vec3};
use std::fmt;

/// A 2-D point in the horizontal plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct P2 {
    /// X coordinate (along the corridor).
    pub x: f64,
    /// Y coordinate (lateral).
    pub y: f64,
}

impl P2 {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> P2 {
        P2 { x, y }
    }

    fn sub(self, o: P2) -> P2 {
        P2::new(self.x - o.x, self.y - o.y)
    }

    fn dot(self, o: P2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

/// A wall: a 2-D segment extruded vertically from the floor to `height`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Segment start.
    pub a: P2,
    /// Segment end.
    pub b: P2,
    /// Wall height in meters.
    pub height: f64,
}

impl Wall {
    /// Creates a wall segment with the given height.
    pub fn new(a: P2, b: P2, height: f64) -> Wall {
        Wall { a, b, height }
    }

    /// Distance from `p` to the closest point of the segment, and that point.
    pub fn closest_point(&self, p: P2) -> (f64, P2) {
        let ab = self.b.sub(self.a);
        let len_sq = ab.dot(ab);
        let t = if len_sq == 0.0 {
            0.0
        } else {
            clamp(p.sub(self.a).dot(ab) / len_sq, 0.0, 1.0)
        };
        let q = P2::new(self.a.x + ab.x * t, self.a.y + ab.y * t);
        (p.sub(q).norm(), q)
    }

    /// Ray–segment intersection: distance along the ray from `origin` in
    /// direction `(dx, dy)` (unit), or `None` if the ray misses.
    pub fn raycast(&self, origin: P2, dx: f64, dy: f64) -> Option<f64> {
        // Solve origin + t*d = a + u*(b-a), t >= 0, u in [0,1].
        let ex = self.b.x - self.a.x;
        let ey = self.b.y - self.a.y;
        let denom = dx * ey - dy * ex;
        if denom.abs() < 1e-12 {
            return None; // parallel
        }
        let ox = self.a.x - origin.x;
        let oy = self.a.y - origin.y;
        let t = (ox * ey - oy * ex) / denom;
        let u = (ox * dy - oy * dx) / denom;
        if t >= 0.0 && (0.0..=1.0).contains(&u) {
            Some(t)
        } else {
            None
        }
    }
}

/// Which built-in environment a [`World`] was generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorldKind {
    /// Straight 50 m × 3.2 m corridor.
    Tunnel,
    /// "S" shaped ~80 m corridor.
    SShape,
    /// Straight 60 m corridor with pillar obstacles forcing a slalom
    /// (extension environment stressing the depth sensor and the
    /// dynamic runtime's deadline switching).
    Slalom,
}

impl WorldKind {
    /// Serializes the world selection as a stable one-byte tag.
    pub fn save_state(&self, w: &mut rose_sim_core::snap::SnapWriter) {
        w.u8(match self {
            WorldKind::Tunnel => 0,
            WorldKind::SShape => 1,
            WorldKind::Slalom => 2,
        });
    }

    /// Restores a world selection from its tag.
    ///
    /// # Errors
    ///
    /// Propagates [`rose_sim_core::snap::SnapError`] on a malformed
    /// snapshot.
    pub fn restore_state(
        r: &mut rose_sim_core::snap::SnapReader<'_>,
    ) -> Result<WorldKind, rose_sim_core::snap::SnapError> {
        match r.u8()? {
            0 => Ok(WorldKind::Tunnel),
            1 => Ok(WorldKind::SShape),
            2 => Ok(WorldKind::Slalom),
            tag => Err(rose_sim_core::snap::SnapError::BadTag {
                context: "WorldKind",
                tag,
            }),
        }
    }
}

impl fmt::Display for WorldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldKind::Tunnel => write!(f, "tunnel"),
            WorldKind::SShape => write!(f, "s-shape"),
            WorldKind::Slalom => write!(f, "slalom"),
        }
    }
}

/// Ground-truth relation of a pose to the corridor centerline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrailQuery {
    /// Signed lateral offset from the centerline in meters. Positive means
    /// the UAV is to the **left** of the trail (trail appears to its right).
    pub lateral_offset: f64,
    /// Signed heading error in radians relative to the local trail tangent.
    /// Positive means the UAV points **left** of the trail direction.
    pub heading_error: f64,
    /// Arc-length progress along the centerline in meters.
    pub progress: f64,
    /// Local corridor half-width at this progress.
    pub half_width: f64,
}

/// An environment: walls, a centerline, and mission geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    kind: WorldKind,
    walls: Vec<Wall>,
    /// Centerline polyline (ordered along the corridor).
    centerline: Vec<P2>,
    /// Cumulative arc length at each centerline vertex.
    arclen: Vec<f64>,
    half_width: f64,
    /// Mission is complete when the UAV's x exceeds this.
    goal_x: f64,
    wall_height: f64,
}

impl World {
    /// The `tunnel` environment: straight, 50 m long, 3.2 m wide
    /// (boundaries at y = ±1.6 m), 3 m tall walls.
    pub fn tunnel() -> World {
        let h = 3.0;
        let half = 1.6;
        let len = 50.0;
        // Walls extend behind the start so an angled UAV cannot escape.
        let x0 = -5.0;
        let walls = vec![
            Wall::new(P2::new(x0, half), P2::new(len + 5.0, half), h),
            Wall::new(P2::new(x0, -half), P2::new(len + 5.0, -half), h),
            // Back wall behind the spawn point.
            Wall::new(P2::new(x0, -half), P2::new(x0, half), h),
        ];
        let centerline = vec![P2::new(0.0, 0.0), P2::new(len, 0.0)];
        World::from_parts(WorldKind::Tunnel, walls, centerline, half, len, h)
    }

    /// The `s-shape` environment: an "S" curve roughly 80 m of arc length
    /// laid out along x ∈ [0, 80], 6 m wide. Mission completes at x = 80.
    pub fn s_shape() -> World {
        let h = 3.0;
        let half = 3.0;
        let goal = 80.0;
        let amplitude = 5.0;
        // Centerline y = A * sin(pi * x / 40): a full S over [0, 80].
        let mut centerline = Vec::new();
        let steps = 160;
        for i in 0..=steps {
            let x = goal * i as f64 / steps as f64;
            let y = amplitude * (std::f64::consts::PI * x / 40.0).sin();
            centerline.push(P2::new(x, y));
        }
        // Offset walls: sampled normals of the centerline.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &c) in centerline.iter().enumerate() {
            let x = goal * i as f64 / steps as f64;
            let dy_dx = amplitude * std::f64::consts::PI / 40.0
                * (std::f64::consts::PI * x / 40.0).cos();
            let norm = (1.0 + dy_dx * dy_dx).sqrt();
            // Unit normal (pointing left of travel).
            let nx = -dy_dx / norm;
            let ny = 1.0 / norm;
            left.push(P2::new(c.x + nx * half, c.y + ny * half));
            right.push(P2::new(c.x - nx * half, c.y - ny * half));
        }
        let mut walls = Vec::new();
        for w in left.windows(2).chain(right.windows(2)) {
            walls.push(Wall::new(w[0], w[1], h));
        }
        // Straight entry section behind the spawn point, capped well clear
        // of the UAV's starting position.
        let entry_l = P2::new(-4.0, half);
        let entry_r = P2::new(-4.0, -half);
        walls.push(Wall::new(entry_l, left[0], h));
        walls.push(Wall::new(entry_r, right[0], h));
        walls.push(Wall::new(entry_l, entry_r, h));
        World::from_parts(WorldKind::SShape, walls, centerline, half, goal, h)
    }

    /// The `slalom` environment: a straight 60 m corridor, 5 m wide, with
    /// square pillars alternating sides every 12 m; the trail weaves
    /// around them.
    pub fn slalom() -> World {
        let h = 3.0;
        let half = 2.5;
        let goal = 60.0;
        let mut walls = vec![
            Wall::new(P2::new(-4.0, half), P2::new(goal + 5.0, half), h),
            Wall::new(P2::new(-4.0, -half), P2::new(goal + 5.0, -half), h),
            Wall::new(P2::new(-4.0, -half), P2::new(-4.0, half), h),
        ];
        // Pillars at x = 12, 24, 36, 48, alternating sides; the trail
        // swings to the opposite side of each pillar.
        let mut centerline = vec![P2::new(0.0, 0.0), P2::new(6.0, 0.0)];
        for (i, px) in [12.0f64, 24.0, 36.0, 48.0].iter().enumerate() {
            let side = if i % 2 == 0 { -1.0 } else { 1.0 };
            let py = side * 0.8;
            let r = 0.4; // pillar half-size
            walls.push(Wall::new(P2::new(px - r, py - r), P2::new(px + r, py - r), h));
            walls.push(Wall::new(P2::new(px + r, py - r), P2::new(px + r, py + r), h));
            walls.push(Wall::new(P2::new(px + r, py + r), P2::new(px - r, py + r), h));
            walls.push(Wall::new(P2::new(px - r, py + r), P2::new(px - r, py - r), h));
            // Trail swings to the free side at the pillar, back to center
            // midway to the next.
            centerline.push(P2::new(*px, -side * 1.1));
            centerline.push(P2::new(px + 6.0, 0.0));
        }
        centerline.push(P2::new(goal, 0.0));
        World::from_parts(WorldKind::Slalom, walls, centerline, half, goal, h)
    }

    /// Builds a world for the given kind.
    pub fn of_kind(kind: WorldKind) -> World {
        match kind {
            WorldKind::Tunnel => World::tunnel(),
            WorldKind::SShape => World::s_shape(),
            WorldKind::Slalom => World::slalom(),
        }
    }

    fn from_parts(
        kind: WorldKind,
        walls: Vec<Wall>,
        centerline: Vec<P2>,
        half_width: f64,
        goal_x: f64,
        wall_height: f64,
    ) -> World {
        assert!(centerline.len() >= 2, "centerline needs >= 2 points");
        let mut arclen = Vec::with_capacity(centerline.len());
        let mut acc = 0.0;
        arclen.push(0.0);
        for w in centerline.windows(2) {
            acc += w[1].sub(w[0]).norm();
            arclen.push(acc);
        }
        World {
            kind,
            walls,
            centerline,
            arclen,
            half_width,
            goal_x,
            wall_height,
        }
    }

    /// Which environment this is.
    pub fn kind(&self) -> WorldKind {
        self.kind
    }

    /// The wall list.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Corridor half-width in meters.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// Wall height in meters.
    pub fn wall_height(&self) -> f64 {
        self.wall_height
    }

    /// X coordinate at which the mission is complete.
    pub fn goal_x(&self) -> f64 {
        self.goal_x
    }

    /// Total centerline arc length.
    pub fn trail_length(&self) -> f64 {
        *self.arclen.last().expect("nonempty centerline")
    }

    /// True once `pos` has passed the goal plane.
    pub fn mission_complete(&self, pos: Vec3) -> bool {
        pos.x >= self.goal_x
    }

    /// Distance from `p` to the nearest wall, and the push-out direction
    /// (unit vector from the wall's closest point towards `p`).
    pub fn nearest_wall(&self, p: P2) -> (f64, P2) {
        let mut best = (f64::INFINITY, P2::default());
        for w in &self.walls {
            let (d, q) = w.closest_point(p);
            if d < best.0 {
                let dir = if d > 1e-9 {
                    P2::new((p.x - q.x) / d, (p.y - q.y) / d)
                } else {
                    P2::new(0.0, 0.0)
                };
                best = (d, dir);
            }
        }
        best
    }

    /// Casts a horizontal ray from `origin` at world `heading` radians and
    /// returns the distance to the first wall, or `None` on a miss.
    pub fn raycast(&self, origin: P2, heading: f64) -> Option<f64> {
        let (dx, dy) = (heading.cos(), heading.sin());
        self.walls
            .iter()
            .filter_map(|w| w.raycast(origin, dx, dy))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Ground-truth trail query for a pose (position + heading).
    ///
    /// Finds the closest centerline point and reports signed lateral offset,
    /// heading error relative to the local tangent, and arc-length progress.
    pub fn trail_query(&self, pos: Vec3, yaw: f64) -> TrailQuery {
        let p = P2::new(pos.x, pos.y);
        let mut best_d = f64::INFINITY;
        let mut best = (0usize, 0.0f64); // segment index, parameter t
        for (i, w) in self.centerline.windows(2).enumerate() {
            let seg = Wall::new(w[0], w[1], 0.0);
            let (d, q) = seg.closest_point(p);
            if d < best_d {
                best_d = d;
                let seg_len = w[1].sub(w[0]).norm();
                let t = if seg_len > 0.0 {
                    q.sub(w[0]).norm() / seg_len
                } else {
                    0.0
                };
                best = (i, t);
            }
        }
        let (i, t) = best;
        let a = self.centerline[i];
        let b = self.centerline[i + 1];
        let tangent = b.sub(a);
        let tangent_angle = tangent.y.atan2(tangent.x);
        // Signed offset: positive if p is left of the tangent direction.
        let rel = p.sub(a);
        let cross = tangent.x * rel.y - tangent.y * rel.x;
        let lateral = best_d * cross.signum();
        let seg_len = tangent.norm();
        TrailQuery {
            lateral_offset: lateral,
            heading_error: wrap_angle(yaw - tangent_angle),
            progress: self.arclen[i] + t * seg_len,
            half_width: self.half_width,
        }
    }

    /// True if a UAV of `radius` at `pos` is in contact with a wall (only
    /// walls tall enough to reach `pos.z` count).
    pub fn collides(&self, pos: Vec3, radius: f64) -> bool {
        let p = P2::new(pos.x, pos.y);
        self.walls
            .iter()
            .any(|w| pos.z <= w.height && w.closest_point(p).0 < radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunnel_dimensions() {
        let w = World::tunnel();
        assert_eq!(w.kind(), WorldKind::Tunnel);
        assert_eq!(w.half_width(), 1.6);
        assert_eq!(w.goal_x(), 50.0);
        assert!((w.trail_length() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn s_shape_dimensions() {
        let w = World::s_shape();
        assert_eq!(w.goal_x(), 80.0);
        // Arc length of the S exceeds the straight-line 80 m.
        assert!(w.trail_length() > 80.0);
        assert!(w.trail_length() < 100.0);
    }

    #[test]
    fn tunnel_collision_boundaries() {
        let w = World::tunnel();
        let r = 0.3;
        assert!(!w.collides(Vec3::new(10.0, 0.0, 1.0), r));
        assert!(w.collides(Vec3::new(10.0, 1.5, 1.0), r));
        assert!(w.collides(Vec3::new(10.0, -1.5, 1.0), r));
        // Above the walls there is no collision.
        assert!(!w.collides(Vec3::new(10.0, 1.5, 10.0), r));
    }

    #[test]
    fn raycast_straight_ahead_hits_side_wall() {
        let w = World::tunnel();
        // Looking 90 degrees left from the center: wall at 1.6 m.
        let d = w
            .raycast(P2::new(10.0, 0.0), std::f64::consts::FRAC_PI_2)
            .expect("hit");
        assert!((d - 1.6).abs() < 1e-9, "d = {d}");
        // Looking straight down the tunnel: hits the far cap at x=55.
        let d = w.raycast(P2::new(10.0, 0.0), 0.0);
        // Tunnel side walls are parallel to the ray; no cap at the end, so
        // the ray escapes (None) — the depth sensor clamps to max range.
        assert!(d.is_none());
    }

    #[test]
    fn trail_query_tunnel_signs() {
        let w = World::tunnel();
        // 0.5 m left of center, pointing 0.1 rad left.
        let q = w.trail_query(Vec3::new(5.0, 0.5, 1.0), 0.1);
        assert!((q.lateral_offset - 0.5).abs() < 1e-9);
        assert!((q.heading_error - 0.1).abs() < 1e-9);
        assert!((q.progress - 5.0).abs() < 1e-9);
        // Right of center gives a negative offset.
        let q = w.trail_query(Vec3::new(5.0, -0.7, 1.0), -0.2);
        assert!((q.lateral_offset + 0.7).abs() < 1e-9);
        assert!((q.heading_error + 0.2).abs() < 1e-9);
    }

    #[test]
    fn trail_query_s_shape_follows_curve() {
        let w = World::s_shape();
        // A point exactly on the centerline has ~zero offset.
        let x = 20.0;
        let y = 5.0 * (std::f64::consts::PI * x / 40.0).sin();
        let q = w.trail_query(Vec3::new(x, y, 1.0), 0.0);
        assert!(q.lateral_offset.abs() < 0.05, "offset {}", q.lateral_offset);
        assert!(q.progress > x, "progress {} along arc", q.progress);
    }

    #[test]
    fn s_shape_collision_on_outer_wall() {
        let w = World::s_shape();
        // Far outside the corridor: collides (or is beyond a wall, but at
        // the apex y=5+3=8 the wall is at ~8).
        assert!(w.collides(Vec3::new(20.0, 8.0, 1.0), 0.4));
        // Center of corridor at the apex: free.
        assert!(!w.collides(Vec3::new(20.0, 5.0, 1.0), 0.4));
    }

    #[test]
    fn slalom_geometry() {
        let w = World::slalom();
        assert_eq!(w.kind(), WorldKind::Slalom);
        assert_eq!(w.goal_x(), 60.0);
        // Pillar faces around (12, -0.8) block that spot but not the trail
        // side (collision geometry is the pillar's wall segments).
        assert!(w.collides(Vec3::new(12.0, -1.15, 1.0), 0.3));
        assert!(w.collides(Vec3::new(11.5, -0.8, 1.0), 0.3));
        assert!(!w.collides(Vec3::new(12.0, 1.1, 1.0), 0.3));
        // The trail weaves: at the first pillar the centerline is on the
        // positive-y side.
        let q = w.trail_query(Vec3::new(12.0, 1.1, 1.0), 0.0);
        assert!(q.lateral_offset.abs() < 0.2, "offset {}", q.lateral_offset);
        // The depth sensor sees the pillar when heading straight at it.
        let d = w
            .raycast(P2::new(8.0, -0.8), 0.0)
            .expect("pillar in view");
        assert!((d - 3.6).abs() < 0.1, "distance to pillar face {d}");
    }

    #[test]
    fn mission_complete_at_goal() {
        let w = World::tunnel();
        assert!(!w.mission_complete(Vec3::new(49.9, 0.0, 1.0)));
        assert!(w.mission_complete(Vec3::new(50.0, 0.0, 1.0)));
    }

    #[test]
    fn wall_raycast_geometry() {
        let wall = Wall::new(P2::new(0.0, -1.0), P2::new(0.0, 1.0), 3.0);
        // Ray from (-2, 0) pointing +x hits at distance 2.
        assert_eq!(wall.raycast(P2::new(-2.0, 0.0), 1.0, 0.0), Some(2.0));
        // Pointing away: miss.
        assert_eq!(wall.raycast(P2::new(-2.0, 0.0), -1.0, 0.0), None);
        // Parallel: miss.
        assert_eq!(wall.raycast(P2::new(-2.0, 0.0), 0.0, 1.0), None);
        // Beyond the segment extent: miss.
        assert_eq!(wall.raycast(P2::new(-2.0, 5.0), 1.0, 0.0), None);
    }
}
