//! Shared/exclusive resource constraints — the task-model extension of the
//! paper's references [3] and [6] (Ramamritham–Stankovic–Zhao).
//!
//! A task may request resources in *shared* or *exclusive* mode; its
//! execution cannot start before every requested resource is available in
//! the requested mode. Availability is summarized by the classical
//! *earliest available time* (EAT) pair per resource:
//!
//! * `EAT_s(r)` — earliest instant a **shared** user may start (pushed out
//!   by exclusive holders),
//! * `EAT_e(r)` — earliest instant an **exclusive** user may start (pushed
//!   out by both shared and exclusive holders).
//!
//! [`ResourceEats`] grows on demand, so resource-free systems pay nothing.

use paragon_des::Time;
use serde::{Deserialize, Serialize};

/// Identifier of a serially reusable resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceId(usize);

impl ResourceId {
    /// Wraps a dense resource index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        ResourceId(index)
    }

    /// The dense resource index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// How a task uses a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// Concurrent readers allowed.
    Shared,
    /// Mutually exclusive use.
    Exclusive,
}

/// One resource requirement of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceRequest {
    /// Which resource.
    pub resource: ResourceId,
    /// In which mode.
    pub mode: AccessMode,
}

impl ResourceRequest {
    /// A shared request.
    #[must_use]
    pub const fn shared(r: usize) -> Self {
        ResourceRequest {
            resource: ResourceId::new(r),
            mode: AccessMode::Shared,
        }
    }

    /// An exclusive request.
    #[must_use]
    pub const fn exclusive(r: usize) -> Self {
        ResourceRequest {
            resource: ResourceId::new(r),
            mode: AccessMode::Exclusive,
        }
    }
}

/// Per-resource earliest-available-time state, growing on demand.
///
/// # Example
///
/// ```
/// use paragon_des::Time;
/// use rt_task::{ResourceEats, ResourceRequest};
///
/// let mut eats = ResourceEats::new();
/// let writer = [ResourceRequest::exclusive(0)];
/// assert_eq!(eats.earliest_start(&writer), Time::ZERO);
/// eats.commit(&writer, Time::from_millis(5));
/// // a reader must now wait for the writer...
/// assert_eq!(eats.earliest_start(&[ResourceRequest::shared(0)]), Time::from_millis(5));
/// // ...but an unrelated resource is free
/// assert_eq!(eats.earliest_start(&[ResourceRequest::shared(1)]), Time::ZERO);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceEats {
    shared: Vec<Time>,
    exclusive: Vec<Time>,
}

impl ResourceEats {
    /// No resources held.
    #[must_use]
    pub const fn new() -> Self {
        ResourceEats {
            shared: Vec::new(),
            exclusive: Vec::new(),
        }
    }

    /// Overwrites `self` with `other`, reusing the existing backing storage.
    ///
    /// The derived `Clone` falls back to `*self = other.clone()` for
    /// `clone_from`, which reallocates; this field-wise `Vec::clone_from`
    /// keeps capacity, so a reused scratch state pays no heap traffic.
    pub fn copy_from(&mut self, other: &ResourceEats) {
        self.shared.clone_from(&other.shared);
        self.exclusive.clone_from(&other.exclusive);
    }

    /// Number of resources touched so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether no resource has ever been committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// The earliest instant a task with `requests` may start, as far as
    /// resources are concerned.
    #[must_use]
    #[inline]
    pub fn earliest_start(&self, requests: &[ResourceRequest]) -> Time {
        requests
            .iter()
            .map(|req| {
                let i = req.resource.index();
                match req.mode {
                    AccessMode::Shared => self.shared.get(i).copied().unwrap_or(Time::ZERO),
                    AccessMode::Exclusive => self.exclusive.get(i).copied().unwrap_or(Time::ZERO),
                }
            })
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Records that a task holding `requests` completes at `completion`:
    /// an exclusive hold pushes out both modes; a shared hold pushes out
    /// only future exclusive users.
    pub fn commit(&mut self, requests: &[ResourceRequest], completion: Time) {
        for req in requests {
            let i = req.resource.index();
            if i >= self.shared.len() {
                self.shared.resize(i + 1, Time::ZERO);
                self.exclusive.resize(i + 1, Time::ZERO);
            }
            match req.mode {
                AccessMode::Exclusive => {
                    self.shared[i] = self.shared[i].max(completion);
                    self.exclusive[i] = self.exclusive[i].max(completion);
                }
                AccessMode::Shared => {
                    self.exclusive[i] = self.exclusive[i].max(completion);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_constructors() {
        assert_eq!(ResourceId::new(3).index(), 3);
        assert_eq!(ResourceId::new(3).to_string(), "R3");
        assert_eq!(ResourceRequest::shared(1).mode, AccessMode::Shared);
        assert_eq!(ResourceRequest::exclusive(1).mode, AccessMode::Exclusive);
    }

    #[test]
    fn shared_users_overlap() {
        let mut eats = ResourceEats::new();
        let reader = [ResourceRequest::shared(0)];
        eats.commit(&reader, Time::from_millis(10));
        // another reader may start immediately
        assert_eq!(eats.earliest_start(&reader), Time::ZERO);
        // but a writer must wait for the reader
        assert_eq!(
            eats.earliest_start(&[ResourceRequest::exclusive(0)]),
            Time::from_millis(10)
        );
    }

    #[test]
    fn exclusive_users_serialize_everything() {
        let mut eats = ResourceEats::new();
        let writer = [ResourceRequest::exclusive(2)];
        eats.commit(&writer, Time::from_millis(7));
        assert_eq!(eats.earliest_start(&writer), Time::from_millis(7));
        assert_eq!(
            eats.earliest_start(&[ResourceRequest::shared(2)]),
            Time::from_millis(7)
        );
        assert_eq!(eats.len(), 3, "grew on demand");
        assert!(!eats.is_empty());
    }

    #[test]
    fn multiple_requests_take_the_max() {
        let mut eats = ResourceEats::new();
        eats.commit(&[ResourceRequest::exclusive(0)], Time::from_millis(3));
        eats.commit(&[ResourceRequest::exclusive(1)], Time::from_millis(9));
        let both = [ResourceRequest::shared(0), ResourceRequest::shared(1)];
        assert_eq!(eats.earliest_start(&both), Time::from_millis(9));
    }

    #[test]
    fn commits_never_move_backwards() {
        let mut eats = ResourceEats::new();
        let w = [ResourceRequest::exclusive(0)];
        eats.commit(&w, Time::from_millis(10));
        eats.commit(&w, Time::from_millis(4));
        assert_eq!(eats.earliest_start(&w), Time::from_millis(10));
    }

    #[test]
    fn untouched_resources_are_free() {
        let eats = ResourceEats::new();
        assert!(eats.is_empty());
        assert_eq!(
            eats.earliest_start(&[ResourceRequest::exclusive(99)]),
            Time::ZERO
        );
        assert_eq!(eats.earliest_start(&[]), Time::ZERO);
    }
}
