package serve

import (
	"fmt"
	"sync"
	"testing"

	"busenc/internal/codec"
)

func fakeResults(codecs ...string) []codec.Result {
	out := make([]codec.Result, len(codecs))
	for i, c := range codecs {
		out[i] = codec.Result{
			Codec: c, Stream: "s", BusWidth: 32,
			Transitions: int64(1000 + i), Cycles: 500,
			PerLine: make([]int64, 32),
		}
	}
	return out
}

const testDigest = "sha256:" + "ab12" + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789ab"

// TestCacheKeyDiscriminates: the same trace digest under a different
// codec set or stride must MISS — only the exact (digest, codes,
// stride) tuple hits, whatever the kernel, since results are
// kernel-invariant.
func TestCacheKeyDiscriminates(t *testing.T) {
	c := NewCache(1 << 20)
	key := NewCacheKey(testDigest, []string{"binary", "gray"}, 4, codec.KernelAuto)
	c.Put(key, fakeResults("binary", "gray"))

	if _, ok := c.Get(key); !ok {
		t.Fatal("exact key missed")
	}
	variants := []CacheKey{
		NewCacheKey(testDigest, []string{"binary", "t0"}, 4, codec.KernelAuto),   // different codec set
		NewCacheKey(testDigest, []string{"binary"}, 4, codec.KernelAuto),         // subset
		NewCacheKey(testDigest, []string{"binary", "gray"}, 8, codec.KernelAuto), // different stride
		NewCacheKey("sha256:"+"ffff"+testDigest[11:], []string{"binary", "gray"}, 4, codec.KernelAuto),
	}
	for i, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Errorf("variant %d unexpectedly hit: %+v", i, k)
		}
	}
	if _, ok := c.Get(NewCacheKey(testDigest, []string{"binary", "gray"}, 4, codec.KernelScalar)); !ok {
		t.Error("another kernel missed; results are kernel-invariant")
	}
}

// TestCacheEviction pins LRU eviction under the bytes bound: inserting
// past the cap evicts the least-recently-used entries first, and the
// resident byte estimate never exceeds the bound.
func TestCacheEviction(t *testing.T) {
	one := resultBytes(fakeResults("binary"))
	c := NewCache(3 * one) // room for exactly 3 single-result entries

	keyN := func(n int) CacheKey {
		return NewCacheKey(testDigest, []string{fmt.Sprintf("c%d", n)}, 1, codec.KernelAuto)
	}
	for n := 0; n < 3; n++ {
		c.Put(keyN(n), fakeResults("binary"))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Touch 0 so 1 becomes LRU, then insert 3: 1 must be evicted.
	if _, ok := c.Get(keyN(0)); !ok {
		t.Fatal("key 0 missed before eviction")
	}
	c.Put(keyN(3), fakeResults("binary"))
	if _, ok := c.Get(keyN(1)); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, n := range []int{0, 2, 3} {
		if _, ok := c.Get(keyN(n)); !ok {
			t.Errorf("entry %d evicted out of LRU order", n)
		}
	}
	if c.Bytes() > 3*one {
		t.Errorf("resident bytes %d exceed bound %d", c.Bytes(), 3*one)
	}

	// An entry bigger than the whole bound is refused outright rather
	// than flushing everything else.
	big := NewCache(one - 1)
	big.Put(keyN(9), fakeResults("binary"))
	if big.Len() != 0 {
		t.Error("oversized entry was cached")
	}
}

// TestCacheConcurrent hammers hit/miss/eviction from many goroutines;
// the -race run of this test is the ISSUE's concurrency criterion.
func TestCacheConcurrent(t *testing.T) {
	one := resultBytes(fakeResults("binary"))
	c := NewCache(8 * one) // small enough to keep evicting under load
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := NewCacheKey(testDigest, []string{fmt.Sprintf("c%d", i%16)}, uint64(g%2+1), codec.KernelAuto)
				if res, ok := c.Get(key); ok {
					if len(res) != 1 || res[0].Cycles != 500 {
						t.Errorf("corrupt cached result: %+v", res)
						return
					}
				} else {
					c.Put(key, fakeResults("binary"))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 8*one {
		t.Errorf("resident bytes %d exceed bound %d after concurrent load", c.Bytes(), 8*one)
	}
}
