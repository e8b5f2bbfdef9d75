//! A slab: dense, reusable storage for per-job state on the engine's hot
//! path. Private to the crate — the engine's running-job table is its
//! only user.
//!
//! Running jobs live in one `Vec` of slots (the pre-PR 6 engine hashed
//! job ids into two `HashMap`s); a job's slot index rides *inside* its
//! finish event, so lookup/insert/remove are array indexing — no hashing,
//! no per-job allocation (freed slots are recycled through a free list).
//! A slot index is only meaningful while its job runs: preempting a job
//! cancels its finish event, queued or already popped, before anything
//! can reuse the slot.

/// Dense slot storage. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Exactly the vacant slots.
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value`, recycling a freed slot when one exists, and
    /// returns its index. O(1); allocates only when the slab must grow.
    pub fn insert(&mut self, value: T) -> usize {
        if let Some(index) = self.free.pop() {
            debug_assert!(self.slots[index].is_none(), "free-listed slot occupied");
            self.slots[index] = Some(value);
            return index;
        }
        self.slots.push(Some(value));
        self.slots.len() - 1
    }

    /// Removes and returns the entry at `index`, or `None` when the slot
    /// is vacant.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        let value = self.slots.get_mut(index)?.take()?;
        self.free.push(index);
        Some(value)
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over live entries with their indices, in slot order: a
    /// linear scan for the rare lookups by job id (preemption victims).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|value| (index, value)))
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
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "second remove finds a vacant slot");
        assert_eq!(slab.remove(b), Some("b"));
        assert!(slab.is_empty());
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
        let entries: Vec<(usize, u32)> = slab.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(entries, vec![(b, 20)]);
        assert_eq!(slab.remove(entries[0].0), Some(20));
    }
}
