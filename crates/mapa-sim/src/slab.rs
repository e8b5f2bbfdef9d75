//! A generational slab: dense, reusable storage for per-job state on
//! the engine's hot path. Private to the crate — the engine's
//! running-job table is its only user.
//!
//! The pre-PR 6 engine kept two `HashMap`s keyed by job id — one for
//! running-job records and one for preemption epochs — and every finish
//! event paid hashing on both. The slab replaces both with one `Vec` of
//! slots addressed by a [`SlotId`] `{index, generation}` carried
//! *inside* the finish event:
//!
//! * lookup/insert/remove are array indexing — no hashing, no per-job
//!   allocation (freed slots are recycled through a free list);
//! * lazy cancellation falls out of the generation: preempting a job
//!   removes its slot, which bumps the slot's generation, so the
//!   victim's already-scheduled finish event (holding the old
//!   generation) dies on its [`Slab::remove`] — there is no separate
//!   epoch table to consult or forget to clean up.
//!
//! Generations also guard the ABA case: a slot freed and re-used keeps
//! rejecting stale ids from every earlier occupant.

/// Handle to an occupied (or once-occupied) slab slot. `Copy`, 8 bytes
/// — cheap enough to ride inside every finish event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// Slot position — stable while the entry lives, recycled after.
    #[must_use]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// Dense generational storage. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value`, recycling a freed slot when one exists, and
    /// returns its id. O(1); allocates only when the slab must grow.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free-listed slot occupied");
            slot.value = Some(value);
            return SlotId {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("slab outgrew u32 indices");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        SlotId {
            index,
            generation: 0,
        }
    }

    /// Removes and returns the entry at `id`, or `None` when the id is
    /// stale — the slot was already removed (and possibly re-used) since
    /// the id was handed out. The stale case *is* the engine's lazy
    /// finish-event cancellation check.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.generation != id.generation {
            return None;
        }
        let value = slot.value.take()?;
        // Bump so every outstanding id to this occupancy goes stale.
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }

    /// The entry at `id`, or `None` when the id is stale.
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let slot = self.slots.get(id.index())?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Whether `id` still addresses a live entry.
    #[must_use]
    pub fn contains(&self, id: SlotId) -> bool {
        self.get(id).is_some()
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over live entries with their ids (slot order, not
    /// insertion order). Used by the rare paths that look a job up by
    /// its *job id* — e.g. resolving preemption victims — where a linear
    /// scan of the (small) running set beats maintaining a second index.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            slot.value.as_ref().map(|value| {
                (
                    SlotId {
                        index: index as u32,
                        generation: slot.generation,
                    },
                    value,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::default();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "second remove is stale");
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn recycled_slots_reject_stale_ids() {
        let mut slab = Slab::default();
        let first = slab.insert(1u32);
        slab.remove(first);
        let second = slab.insert(2u32);
        // Same physical slot, new generation.
        assert_eq!(second.index(), first.index());
        assert_ne!(first, second);
        assert!(!slab.contains(first));
        assert_eq!(slab.get(first), None);
        assert_eq!(
            slab.remove(first),
            None,
            "ABA id must not free the new tenant"
        );
        assert_eq!(slab.get(second), Some(&2));
    }

    #[test]
    fn no_growth_when_recycling() {
        let mut slab = Slab::default();
        let mut ids = Vec::new();
        for round in 0..100u32 {
            for i in 0..4 {
                ids.push(slab.insert(round * 4 + i));
            }
            for id in ids.drain(..) {
                assert!(slab.remove(id).is_some());
            }
        }
        assert!(slab.is_empty());
        assert_eq!(slab.slots.len(), 4, "steady-state churn re-uses slots");
    }

    #[test]
    fn iter_yields_live_entries_with_valid_ids() {
        let mut slab = Slab::default();
        let a = slab.insert(10u32);
        let b = slab.insert(20u32);
        slab.remove(a);
        let entries: Vec<(SlotId, u32)> = slab.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0], (b, 20));
        assert!(slab.contains(entries[0].0));
    }
}
