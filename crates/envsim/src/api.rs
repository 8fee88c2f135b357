//! The RPC-style simulator API.
//!
//! AirSim exposes a remote-procedure-call API for sensor readings,
//! actuation, and simulator commands (Section 3.1). The RoSÉ synchronizer
//! decodes I/O packets from the simulated SoC and translates them into these
//! API calls (Algorithm 1: `cmd <- decode(datum); call_airsim_api(cmd)`).
//!
//! [`SimRequest`] covers the calls the evaluation uses: image, IMU, and
//! depth requests, pose queries, velocity-target actuation, and simulation
//! control. Each request is answered by exactly one [`SimResponse`].

use crate::camera::Image;
use crate::sensors::{DepthSample, ImuSample};
use rose_sim_core::math::Vec3;

/// A velocity-level control target, as sent from the companion computer to
/// the flight controller (angular and linear velocity targets, Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityTarget {
    /// Forward velocity target in the body frame (m/s).
    pub forward: f64,
    /// Lateral velocity target in the body frame, positive left (m/s).
    pub lateral: f64,
    /// Yaw rate target (rad/s), positive counterclockwise.
    pub yaw_rate: f64,
    /// Altitude to hold (m above ground).
    pub altitude: f64,
}

impl Default for VelocityTarget {
    /// Hover in place at 1.5 m.
    fn default() -> VelocityTarget {
        VelocityTarget {
            forward: 0.0,
            lateral: 0.0,
            yaw_rate: 0.0,
            altitude: 1.5,
        }
    }
}

impl VelocityTarget {
    /// A forward-flight target at `forward` m/s holding the default altitude.
    pub fn forward(forward: f64) -> VelocityTarget {
        VelocityTarget {
            forward,
            ..VelocityTarget::default()
        }
    }
}

/// The UAV's ground-truth pose, for logging and evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// World position (m).
    pub position: Vec3,
    /// World-frame velocity (m/s).
    pub velocity: Vec3,
    /// Heading (yaw) in radians.
    pub yaw: f64,
}

/// A request to the environment simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimRequest {
    /// Capture a camera frame.
    GetImage,
    /// Read the IMU.
    GetImu,
    /// Read the forward depth sensor.
    GetDepth,
    /// Query the ground-truth pose (simulation-level API, used by the
    /// synchronizer for CSV logging, never by the simulated SoC).
    GetPose,
    /// Send a velocity target to the flight controller.
    SetVelocityTarget(VelocityTarget),
    /// Query accumulated collision count.
    GetCollisionCount,
    /// Reset the vehicle to a pose (simulation-level API).
    Reset {
        /// New position.
        position: Vec3,
        /// New heading in radians.
        yaw: f64,
    },
}

/// A response from the environment simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimResponse {
    /// A camera frame.
    Image(Image),
    /// An IMU sample.
    Imu(ImuSample),
    /// A depth sample.
    Depth(DepthSample),
    /// The current pose.
    Pose(Pose),
    /// Collision count so far.
    CollisionCount(u32),
    /// Acknowledgement for actuation / control requests.
    Ack,
}

impl SimResponse {
    /// Extracts an image, if this response carries one.
    pub fn into_image(self) -> Option<Image> {
        match self {
            SimResponse::Image(img) => Some(img),
            _ => None,
        }
    }

    /// Extracts a depth sample, if this response carries one.
    pub fn as_depth(&self) -> Option<&DepthSample> {
        match self {
            SimResponse::Depth(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_target_hovers() {
        let t = VelocityTarget::default();
        assert_eq!(t.forward, 0.0);
        assert_eq!(t.altitude, 1.5);
    }

    #[test]
    fn response_extractors() {
        let img = Image::black(2, 2);
        assert!(SimResponse::Image(img.clone()).into_image().is_some());
        assert!(SimResponse::Ack.into_image().is_none());
        let d = DepthSample {
            depth: 3.0,
            timestamp: 0.0,
        };
        assert!(SimResponse::Depth(d).as_depth().is_some());
        assert!(SimResponse::Ack.as_depth().is_none());
    }
}
