package gateway

import (
	"container/list"
	"sync"
)

// partLRU is the gateway's bounded, byte-budgeted part cache, keyed by
// store.PartCacheKey — the content digest for content-addressed backends.
// Dedupe makes the key global: one cached part serves every object (and
// every request) referencing the same bytes.
//
// Entries are immutable byte slices; the cache never copies on Get, so hits
// cost one map lookup and one list move, and readers are handed sub-slices
// of them. Eviction is strict LRU by bytes and only drops the cache's
// reference: the memory is never reused, so a slice a reader still holds
// stays valid.
type partLRU struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	order    *list.List // front = most recent; values are *lruEntry
	entries  map[string]*list.Element

	hits, misses, evictions int64
}

type lruEntry struct {
	key  string
	data []byte
}

// newPartLRU builds a cache holding at most capacity bytes (minimum one
// entry is always admitted if it fits the capacity; parts larger than the
// whole capacity are refused).
func newPartLRU(capacity int64) *partLRU {
	return &partLRU{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// GetPart returns the cached part for key, counting the hit or miss.
func (c *partLRU) GetPart(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).data, true
}

// peek is GetPart without the hit/miss count or the recency update.
func (c *partLRU) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).data, true
}

// admits reports whether a part of the given size can ever be cached.
// Oversized parts are declined rather than wiping the whole cache for one
// entry.
func (c *partLRU) admits(size int64) bool { return size <= c.capacity }

// AddPart caches data under key, evicting from the cold end to make room.
func (c *partLRU) AddPart(key string, data []byte) {
	if !c.admits(int64(len(data))) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Same digest means same bytes; just refresh recency.
		c.order.MoveToFront(el)
		return
	}
	for c.bytes+int64(len(data)) > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.data))
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, data: data})
	c.bytes += int64(len(data))
}

// snapshot returns (hits, misses, evictions, bytes, entries).
func (c *partLRU) snapshot() (int64, int64, int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.bytes, int64(len(c.entries))
}
