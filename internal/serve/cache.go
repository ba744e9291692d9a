package serve

import (
	"container/list"
	"strings"
	"sync"

	"busenc/internal/codec"
)

// Result cache. Evaluation results are a pure function of the trace
// bytes and the codec parameters, so the cache key is exactly that
// function's domain: the trace's SHA-256 digest, the normalized codec
// set and the in-sequence stride (codec.Options.Stride changes every
// T0-family result). Chunk length, fan-out depth and the pricing kernel
// are deliberately NOT in the key — the parity tests pin results to be
// chunking- and kernel-independent, so including them would only split
// hits. A kernel that cannot price a codec is refused at admission
// (parseEval), so a hit never stands in for an invalid request.
//
// The cache is LRU-bounded by an approximate resident-byte count, not
// an entry count: a PerLine-carrying result for a wide bus is two
// orders of magnitude bigger than an aggregate-only one, and the
// ROADMAP scenario ("millions of users") makes bytes the resource that
// actually runs out.

// CacheKey identifies one evaluation's inputs.
type CacheKey struct {
	// Digest is the trace content digest ("sha256:..." hex).
	Digest string
	// Codes is the normalized codec set: names joined by "," in request
	// order (the canonical order NormalizeCodes produces).
	Codes string
	// Stride is the codec.Options in-sequence stride (0 means 1).
	Stride uint64
}

// NewCacheKey builds a key from a digest, a codec list, and options.
// The kernel does not enter the key (results are kernel-invariant); the
// parameter stays so existing callers keep compiling.
func NewCacheKey(digest string, codes []string, stride uint64, _ codec.Kernel) CacheKey {
	return CacheKey{
		Digest: digest,
		Codes:  strings.Join(codes, ","),
		Stride: stride,
	}
}

type cacheEntry struct {
	key     CacheKey
	results []codec.Result
	bytes   int64
}

// Cache is a bytes-bounded LRU of evaluation results. It is safe for
// concurrent use. Stored result slices are shared with callers and must
// be treated as read-only by everyone.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *cacheEntry
	m        map[CacheKey]*list.Element
}

// DefaultCacheBytes is the default result-cache bound: 64 MiB of
// resident results.
const DefaultCacheBytes = 64 << 20

// NewCache returns a cache bounded to maxBytes of resident results
// (DefaultCacheBytes if maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{maxBytes: maxBytes, ll: list.New(), m: make(map[CacheKey]*list.Element)}
}

// resultBytes approximates the resident size of a result set: the
// fixed struct fields plus the PerLine slice payloads and string
// headers' backing bytes.
func resultBytes(results []codec.Result) int64 {
	n := int64(0)
	for _, r := range results {
		n += 96 // struct fields, slice/string headers
		n += int64(len(r.PerLine)) * 8
		n += int64(len(r.Codec) + len(r.Stream))
	}
	return n
}

// Get returns the cached results for key, marking the entry most
// recently used. The second return distinguishes a hit from a miss, and
// both outcomes are counted.
func (c *Cache) Get(key CacheKey) ([]codec.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		metrics().cacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	metrics().cacheHits.Inc()
	return el.Value.(*cacheEntry).results, true
}

// Put stores results under key, evicting least-recently-used entries
// until the byte bound holds. A result set bigger than the whole bound
// is not cached at all (it would evict everything for one un-shareable
// entry). Re-putting an existing key refreshes its recency and value.
func (c *Cache) Put(key CacheKey, results []codec.Result) {
	size := resultBytes(results)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += size - ent.bytes
		ent.results, ent.bytes = results, size
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&cacheEntry{key: key, results: results, bytes: size})
		c.bytes += size
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.m, ent.key)
		c.bytes -= ent.bytes
		metrics().cacheEvicts.Inc()
	}
	metrics().cacheBytes.Set(c.bytes)
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the resident byte estimate.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
