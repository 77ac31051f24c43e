package serve

import (
	"container/list"
	"sync"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/obs"
)

// cacheKey identifies one servable response. The generation field is the
// safety argument: it is read BEFORE the evaluation snapshots the window
// representation, so a result is always at least as fresh as its key. A
// commit racing the evaluation bumps the source's generation, every
// later lookup presents the new generation, and the stale-keyed entry is
// structurally unreachable — invalidation does not depend on the purge
// hook firing first.
type cacheKey struct {
	algo       string
	source     int
	window     commongraph.Window
	strategy   commongraph.Strategy
	keepValues bool
	gen        uint64
}

// resultCache is a small LRU over wire-shaped results. Entries are
// value-copied out so callers can mark their copy (Cached, Trace)
// without mutating the cached one. Results whose estimated wire
// footprint exceeds maxBytes are refused at admission (maxBytes <= 0
// = unlimited): the LRU is entry-counted, so one KeepValues sweep over
// a big window would otherwise displace hundreds of checksum-sized
// results while being the least likely entry to be asked for again.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	entries  map[cacheKey]*list.Element
	order    *list.List // front = most recent
}

type cacheEntry struct {
	key cacheKey
	res apiv1.RunResult
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		entries:  make(map[cacheKey]*list.Element),
		order:    list.New(),
	}
}

// resultBytes estimates a result's wire footprint. The dominant term
// is KeepValues payloads — 8 bytes per vertex value per snapshot;
// checksum-only snapshots cost a small constant.
func resultBytes(res *apiv1.RunResult) int64 {
	n := int64(128)
	for i := range res.Snapshots {
		n += 64 + int64(len(res.Snapshots[i].Values))*8
	}
	return n
}

func (c *resultCache) get(k cacheKey) (apiv1.RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		obs.ServeCacheEvents("miss").Inc()
		return apiv1.RunResult{}, false
	}
	c.order.MoveToFront(el)
	obs.ServeCacheEvents("hit").Inc()
	return el.Value.(*cacheEntry).res, true
}

func (c *resultCache) put(k cacheKey, res apiv1.RunResult) {
	if c.maxBytes > 0 && resultBytes(&res) > c.maxBytes {
		obs.ServeCacheAdmissionRejects().Inc()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, res: res})
	obs.ServeCacheEvents("insert").Inc()
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.order.Remove(oldest)
		obs.ServeCacheEvents("evict").Inc()
	}
}

// purge drops everything — the commit hook's path. Entries keyed by
// older generations are already unreachable; purging just returns their
// memory early.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return
	}
	c.entries = make(map[cacheKey]*list.Element)
	c.order.Init()
	obs.ServeCacheEvents("purge").Inc()
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
