package knw

import (
	"container/list"
	"sync"
)

// drawBudget bounds the bytes of hash functions the draw cache keeps.
// One set of the default 13 F0 copies charges 626 KiB at any ε, nearly
// all of it tabulation tables, so 8 MiB keeps 13 such sets.
const drawBudget = 8 << 20

// draws is the process-wide draw cache every F0 is built through.
var draws = drawCache{budget: drawBudget}

// drawCache keeps the hash functions drawn for recently used settings,
// so building, opening and merging an F0 allocates only counter state.
// Drawing the default 13 copies' functions takes ~160k math/rand draws
// and 624 KiB of tables; every sketch built from the same settings
// shares one draw, read-only.
//
// Each set is charged its hash functions' SeedBits. The cache keeps at
// most budget bytes, evicting the least recently used sets on insert;
// a set larger than the budget is drawn but not kept. Eviction drops
// only the cache's reference: sketches built from an evicted set keep
// its tables alive, and the next miss draws the same functions again.
// The cache hands out blanks, never the templates it holds.
type drawCache struct {
	budget int

	mu   sync.Mutex
	used int       // bytes charged to the sets in lru
	lru  list.List // *drawSet, most recently used first
	sets map[settings]*list.Element
}

type drawSet struct {
	cfg   settings
	tmpl  *F0 // drawn copies without counter state
	bytes int
}

// template returns the drawn template for cfg, drawing it on a miss.
func (c *drawCache) template(cfg settings) *F0 {
	c.mu.Lock()
	if e := c.sets[cfg]; e != nil {
		c.lru.MoveToFront(e)
		t := e.Value.(*drawSet).tmpl
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()

	// Draw outside the lock, so a miss does not stall hits. Two
	// concurrent misses on one cfg both draw; the first insert wins.
	t := drawF0(cfg)
	bytes := t.seedBits() / 8
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.sets[cfg]; e != nil {
		c.lru.MoveToFront(e)
		return e.Value.(*drawSet).tmpl
	}
	if bytes > c.budget {
		return t
	}
	for c.used+bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*drawSet)
		delete(c.sets, old.cfg)
		c.used -= old.bytes
	}
	if c.sets == nil {
		c.sets = make(map[settings]*list.Element)
	}
	c.sets[cfg] = c.lru.PushFront(&drawSet{cfg: cfg, tmpl: t, bytes: bytes})
	c.used += bytes
	return t
}
