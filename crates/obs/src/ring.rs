//! The bounded ring behind the flight recorder and the simulator's
//! instruction trace.

/// Keeps the newest `capacity` items pushed into it and counts the older
/// ones it dropped. Once full, a push overwrites the oldest item in place,
/// so a ring fed on a hot path costs one slot write per item.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// The held items: in age order while the ring is filling; once it is
    /// full, the oldest sits at `oldest`.
    items: Vec<T>,
    oldest: usize,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            items: Vec::with_capacity(capacity),
            oldest: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Adds `item`, dropping the oldest one if the ring is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        self.items[self.oldest] = item;
        self.oldest += 1;
        if self.oldest == self.capacity {
            self.oldest = 0;
        }
        self.dropped += 1;
    }

    /// Re-bounds the ring, dropping the oldest items if it shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "ring capacity must be positive");
        self.items.rotate_left(self.oldest);
        self.oldest = 0;
        let excess = self.items.len().saturating_sub(capacity);
        self.items.drain(..excess);
        self.dropped += excess as u64;
        self.capacity = capacity;
    }

    /// The held items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.items.split_at(self.oldest);
        older.iter().chain(newer)
    }

    /// Number of items held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no item is held.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The most items the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items dropped so far to respect the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_items_oldest_first() {
        let mut ring = Ring::new(3);
        for i in 0..7 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!((ring.len(), ring.dropped()), (3, 4));
    }

    #[test]
    fn resizing_keeps_age_order() {
        let mut ring = Ring::new(4);
        for i in 0..6 {
            ring.push(i);
        }
        ring.set_capacity(6);
        ring.push(6);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3, 4, 5, 6]);
        ring.set_capacity(2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [5, 6]);
        assert_eq!(ring.dropped(), 2 + 3);
        ring.push(7);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [6, 7]);
    }
}
