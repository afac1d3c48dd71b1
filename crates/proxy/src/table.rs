//! The proxy's per-shard slot table: what the proxy knows about each object
//! an engine shard has interned, and the prefix bytes behind its grant.

use bytes::Bytes;

/// What the proxy holds for one object: the size and bit-rate the origin
/// announced, and the cached prefix bytes (empty when nothing is cached).
#[derive(Debug, Clone, Default)]
pub(crate) struct Object {
    pub size: u64,
    pub bitrate_bps: f64,
    pub prefix: Bytes,
}

/// One table entry: the object's name next to its [`Object`].
#[derive(Debug)]
pub(crate) struct Entry {
    pub name: String,
    pub object: Object,
}

/// A slot-indexed mirror of one engine shard, kept as the shard's table in
/// [`sc_cache::ShardedEngine`], so it is only ever touched under the lock
/// that orders that shard's engine decisions.
///
/// Entries are indexed by the shard's slot handles and never removed (the
/// engine never frees a slot either): an evicted object keeps its name and
/// metadata with an empty prefix, which holds no buffer. Every stored
/// prefix owns exactly its own bytes, so the bytes resident in the table
/// are the bytes the engine has granted. Byte and object totals are kept
/// incrementally, so reading them costs nothing per entry.
#[derive(Debug, Default)]
pub(crate) struct SlotTable {
    entries: Vec<Option<Entry>>,
    bytes: u64,
    objects: usize,
}

impl SlotTable {
    /// The entry at `slot`, if any.
    pub fn get(&self, slot: u32) -> Option<&Entry> {
        self.entries.get(slot as usize).and_then(Option::as_ref)
    }

    /// The object at `slot` if it was recorded under `name`. A different
    /// stored name (two names whose keys collide) counts as a miss.
    pub fn lookup(&self, slot: u32, name: &str) -> Option<&Object> {
        self.get(slot)
            .filter(|entry| entry.name == name)
            .map(|entry| &entry.object)
    }

    /// Applies one engine delta: the prefix at `slot` shrinks to at most
    /// `len` bytes (0 for an eviction). Never grows a prefix.
    pub fn truncate(&mut self, slot: u32, len: usize) {
        let shorter = match self.get(slot) {
            Some(entry) if entry.object.prefix.len() > len => own_prefix(&entry.object.prefix, len),
            _ => return,
        };
        self.set_prefix(slot, shorter);
    }

    /// Records `name` with its `size` and `bitrate_bps` at `slot` and grows
    /// its prefix to `min(grant, candidate.len())` bytes of `candidate`
    /// (the bytes in hand) when that is longer than what is stored. The
    /// candidate is shared when it is granted whole and copied down to the
    /// grant otherwise (see [`own_prefix`]). An entry recorded under
    /// another name is replaced.
    pub fn commit(
        &mut self,
        slot: u32,
        name: &str,
        size: u64,
        bitrate_bps: f64,
        candidate: &Bytes,
        grant: usize,
    ) {
        let index = slot as usize;
        if self.entries.len() <= index {
            self.entries.resize_with(index + 1, || None);
        }
        if self.lookup(slot, name).is_none() {
            self.set_prefix(slot, Bytes::new());
            self.entries[index] = Some(Entry {
                name: name.to_string(),
                object: Object::default(),
            });
        }
        let object = &mut self.entries[index].as_mut().expect("entry recorded").object;
        object.size = size;
        object.bitrate_bps = bitrate_bps;
        let stored = object.prefix.len();
        let len = grant.min(candidate.len());
        if len > stored {
            self.set_prefix(slot, own_prefix(candidate, len));
        }
        debug_assert!(
            self.get(slot).map_or(0, |entry| entry.object.prefix.len()) <= grant,
            "{name}: stored prefix exceeds the engine grant of {grant} bytes"
        );
    }

    /// Total prefix bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of objects with a non-empty prefix.
    pub fn objects(&self) -> usize {
        self.objects
    }

    /// Replaces the prefix at `slot` (a no-op for an empty slot), keeping
    /// the byte and object totals in step.
    fn set_prefix(&mut self, slot: u32, prefix: Bytes) {
        let Some(Some(entry)) = self.entries.get_mut(slot as usize) else {
            return;
        };
        let old = std::mem::replace(&mut entry.object.prefix, prefix);
        let new = &entry.object.prefix;
        self.bytes = self.bytes - old.len() as u64 + new.len() as u64;
        self.objects = self.objects - usize::from(!old.is_empty()) + usize::from(!new.is_empty());
    }
}

/// The first `len` bytes of `bytes`, held so that a stored prefix pins
/// exactly its own length: all of `bytes` is shared, an empty prefix holds
/// no buffer, and anything shorter is copied out. A shared slice would keep
/// the whole evicted or retained-past-the-grant buffer alive, so resident
/// memory would follow past grants instead of the cache capacity.
fn own_prefix(bytes: &Bytes, len: usize) -> Bytes {
    match len {
        0 => Bytes::new(),
        _ if len == bytes.len() => bytes.clone(),
        _ => Bytes::from(&bytes[..len]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: u8) -> Bytes {
        Bytes::from((0..n).collect::<Vec<u8>>())
    }

    #[test]
    fn commit_stores_at_most_the_grant_and_counts_it() {
        let mut table = SlotTable::default();
        assert!(table.lookup(0, "a").is_none());
        table.commit(2, "a", 100, 10.0, &bytes(10), 4);
        let a = table.lookup(2, "a").unwrap();
        assert_eq!((a.size, a.bitrate_bps), (100, 10.0));
        assert_eq!(&a.prefix[..], &[0, 1, 2, 3]);
        table.commit(0, "b", 100, 10.0, &bytes(6), 50);
        assert_eq!(table.lookup(0, "b").unwrap().prefix.len(), 6);
        assert_eq!((table.bytes(), table.objects()), (10, 2));
        // Slot 1 was never committed.
        assert!(table.get(1).is_none());
    }

    #[test]
    fn commit_grows_but_never_shrinks_a_prefix() {
        let mut table = SlotTable::default();
        table.commit(0, "a", 100, 10.0, &bytes(8), 8);
        // Fewer bytes in hand (a concurrent request saw a shorter prefix).
        table.commit(0, "a", 100, 10.0, &bytes(3), 8);
        assert_eq!(table.lookup(0, "a").unwrap().prefix.len(), 8);
        assert_eq!(table.bytes(), 8);
    }

    #[test]
    fn truncate_shrinks_but_never_grows() {
        let mut table = SlotTable::default();
        table.commit(0, "a", 100, 10.0, &bytes(10), 10);
        table.truncate(0, 4);
        assert_eq!(table.lookup(0, "a").unwrap().prefix.len(), 4);
        table.truncate(0, 100);
        assert_eq!(table.lookup(0, "a").unwrap().prefix.len(), 4);
        // Eviction keeps the metadata but drops the bytes.
        table.truncate(0, 0);
        let a = table.lookup(0, "a").unwrap();
        assert!(a.prefix.is_empty());
        assert_eq!(a.size, 100);
        assert_eq!((table.bytes(), table.objects()), (0, 0));
        table.truncate(7, 2); // no-op
    }

    /// Whether `prefix` points into `buffer`'s bytes.
    fn shares(prefix: &Bytes, buffer: &Bytes) -> bool {
        buffer.as_ptr_range().contains(&prefix.as_ptr())
    }

    #[test]
    fn stored_prefixes_hold_only_their_own_bytes() {
        let mut table = SlotTable::default();
        // The whole candidate is granted: shared, not copied.
        let whole = bytes(10);
        table.commit(0, "a", 100, 10.0, &whole, 10);
        assert!(shares(&table.lookup(0, "a").unwrap().prefix, &whole));
        // A grant shorter than the bytes in hand stores a copy of the
        // granted bytes, not a window pinning the retained tail.
        let long = bytes(40);
        table.commit(1, "b", 100, 10.0, &long, 16);
        let b = &table.lookup(1, "b").unwrap().prefix;
        assert_eq!(&b[..], &long[..16]);
        assert!(!shares(b, &long));
        // A partial eviction copies the kept bytes out of the old buffer.
        let before = table.lookup(0, "a").unwrap().prefix.clone();
        table.truncate(0, 4);
        let a = &table.lookup(0, "a").unwrap().prefix;
        assert_eq!(&a[..], &before[..4]);
        assert!(!shares(a, &before));
        // A full eviction holds no buffer at all.
        table.truncate(1, 0);
        assert!(!shares(&table.lookup(1, "b").unwrap().prefix, &long));
    }

    #[test]
    fn another_name_at_the_slot_is_a_miss_and_replaces_it() {
        let mut table = SlotTable::default();
        table.commit(0, "a", 100, 10.0, &bytes(10), 10);
        assert!(table.lookup(0, "b").is_none());
        table.commit(0, "b", 50, 5.0, &bytes(2), 10);
        assert!(table.lookup(0, "a").is_none());
        assert_eq!(table.lookup(0, "b").unwrap().prefix.len(), 2);
        assert_eq!((table.bytes(), table.objects()), (2, 1));
    }
}
