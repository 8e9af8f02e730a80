// Package cache implements the compute cache of the hybrid/partial
// breadth-first algorithm: a lossy, direct-mapped table that stores both
// computed operations (result is a BDD ref) and uncomputed operations
// (result is a handle to an operator node still awaiting its reduction).
//
// Following the paper (§3.2), the cache is private to a worker — sharing
// would require synchronization on every lookup — and, following the
// per-variable data layout (§3.1), it is segmented by the operation's top
// variable so that cache probes during the expansion of variable x touch
// only x's segment.
//
// Entries are invalidated lazily with generation numbers:
//
//   - entries holding a BDD ref die when the BDD generation advances
//     (garbage collection moves or frees nodes);
//   - entries holding an operator-node handle die when the op generation
//     advances (operator arenas are recycled once a top-level operation
//     completes).
package cache

import "bfbdd/internal/node"

// Tagged is a tagged result word: either a node.Ref (bit 63 clear) or an
// operator-node handle (bit 63 set). The core package defines the handle
// encoding; the cache only preserves the tag.
type Tagged uint64

// IsOpHandle reports whether v holds an operator-node handle.
func (v Tagged) IsOpHandle() bool { return v>>63 == 1 }

// Ref returns the BDD ref stored in v. Only valid when !IsOpHandle.
func (v Tagged) Ref() node.Ref { return node.Ref(v) }

// FromRef wraps a BDD ref as a tagged word.
func FromRef(r node.Ref) Tagged { return Tagged(r) }

type entry struct {
	f, g node.Ref
	val  Tagged
	op   uint8
	gen  uint32
}

const (
	emptyF = node.Nil // sentinel: entry unused

	// initialBits sizes a fresh per-variable segment at 2^initialBits.
	initialBits = 8
)

type segment struct {
	entries []entry
	mask    uint64
	// pressure counts inserts since the last resize; when it exceeds the
	// segment size the segment doubles (up to the cache's max bits). This
	// keeps small builds small while letting hot variables grow.
	pressure uint64
}

// entry3 is a ternary-operation entry (ITE, Compose). Ternary entries
// live in segments of their own so the binary entry keeps its 32 bytes.
type entry3 struct {
	f, g, h node.Ref
	val     Tagged
	op      uint8
	gen     uint32
}

type segment3 struct {
	entries  []entry3
	mask     uint64
	pressure uint64
}

// Cache is one worker's compute cache, segmented by variable level.
type Cache struct {
	segs    []segment
	maxBits uint
	// segs3 are the ternary segments, allocated on the first ternary
	// insert: builds that never run a ternary operation carry none.
	segs3 []segment3

	bddGen uint32
	opGen  uint32

	hits, misses, inserts uint64
}

// New creates a cache with one segment per level. maxBits bounds each
// segment at 2^maxBits entries.
func New(levels int, maxBits uint) *Cache {
	if maxBits < initialBits {
		maxBits = initialBits
	}
	return &Cache{segs: make([]segment, levels), maxBits: maxBits}
}

// Levels returns the number of per-variable segments.
func (c *Cache) Levels() int { return len(c.segs) }

// Hits, Misses and Inserts return lookup/insert counters.
func (c *Cache) Hits() uint64    { return c.hits }
func (c *Cache) Misses() uint64  { return c.misses }
func (c *Cache) Inserts() uint64 { return c.inserts }

// InvalidateBDD advances the BDD generation: every entry whose value is a
// BDD ref becomes stale. Called after garbage collection. Since every
// entry is then stale, the segments' storage is released as well: they
// regrow to what the builds after the collection insert, instead of
// keeping the size that every insert since the kernel started added up to.
func (c *Cache) InvalidateBDD() {
	c.bddGen++
	c.opGen++
	c.Shrink()
}

// InvalidateOps advances the op generation: every entry whose value is an
// operator-node handle becomes stale. Called when operator arenas are
// recycled at the end of a top-level operation.
func (c *Cache) InvalidateOps() { c.opGen++ }

// Bytes returns the cache's approximate memory footprint.
func (c *Cache) Bytes() uint64 {
	var total uint64
	for i := range c.segs {
		total += uint64(len(c.segs[i].entries)) * 32
	}
	for i := range c.segs3 {
		total += uint64(len(c.segs3[i].entries)) * 40
	}
	return total
}

// Shrink releases every segment's storage and returns the bytes freed.
// It is the memory-pressure escalation step between an early GC and a
// budget abort: the cache is lossy by contract, so dropping it entirely
// only costs recomputation. Safe only while the owning worker is
// quiescent (top-level-operation boundaries) — segments holding
// operator-node handles for an in-flight build must not disappear
// mid-reduction.
func (c *Cache) Shrink() uint64 {
	freed := c.Bytes()
	for i := range c.segs {
		c.segs[i] = segment{}
	}
	c.segs3 = nil
	return freed
}

func hash3(op uint8, f, g node.Ref) uint64 {
	h := uint64(f)*0x9E3779B97F4A7C15 + uint64(g)*0xC2B2AE3D27D4EB4F + uint64(op)*0x165667B19E3779F9
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return h
}

func (c *Cache) genFor(v Tagged) uint32 {
	if v.IsOpHandle() {
		return c.opGen
	}
	return c.bddGen
}

// Lookup returns the cached result for (op, f, g) at the given level, if
// present and current.
func (c *Cache) Lookup(level int, op uint8, f, g node.Ref) (Tagged, bool) {
	s := &c.segs[level]
	if s.entries == nil {
		c.misses++
		return 0, false
	}
	e := &s.entries[hash3(op, f, g)&s.mask]
	if e.f == f && e.g == g && e.op == op && e.f != emptyF && e.gen == c.genFor(e.val) {
		c.hits++
		return e.val, true
	}
	c.misses++
	return 0, false
}

// Insert records the result for (op, f, g) at the given level, evicting
// whatever occupied the slot. Direct-mapped and lossy by design: the
// hybrid algorithm deliberately bounds cache memory rather than keeping a
// complete table of uncomputed operations.
func (c *Cache) Insert(level int, op uint8, f, g node.Ref, val Tagged) {
	s := &c.segs[level]
	if s.entries == nil {
		s.entries = make([]entry, 1<<initialBits)
		s.mask = 1<<initialBits - 1
		for i := range s.entries {
			s.entries[i].f = emptyF
		}
	} else if s.pressure > uint64(len(s.entries)) && uint64(len(s.entries)) < 1<<c.maxBits {
		c.growSegment(s)
	}
	s.pressure++
	c.inserts++
	e := &s.entries[hash3(op, f, g)&s.mask]
	e.op, e.f, e.g, e.val, e.gen = op, f, g, val, c.genFor(val)
}

// growSegment doubles a segment, rehashing current entries.
func (c *Cache) growSegment(s *segment) {
	old := s.entries
	s.entries = make([]entry, len(old)*2)
	s.mask = uint64(len(s.entries)) - 1
	s.pressure = 0
	for i := range s.entries {
		s.entries[i].f = emptyF
	}
	for i := range old {
		e := &old[i]
		if e.f == emptyF || e.gen != c.genFor(e.val) {
			continue
		}
		s.entries[hash3(e.op, e.f, e.g)&s.mask] = *e
	}
}

// Update rewrites the cached value for (op, f, g) if the entry is still
// present, e.g. to replace an uncomputed op handle with its final BDD ref
// so later probes skip the operator node.
func (c *Cache) Update(level int, op uint8, f, g node.Ref, val Tagged) {
	s := &c.segs[level]
	if s.entries == nil {
		return
	}
	e := &s.entries[hash3(op, f, g)&s.mask]
	if e.f == f && e.g == g && e.op == op {
		e.val, e.gen = val, c.genFor(val)
	}
}

func hash4(op uint8, f, g, h node.Ref) uint64 {
	return hash3(op, f, g) ^ uint64(h)*0x94D049BB133111EB
}

// Lookup3 is Lookup for a ternary operation (op, f, g, h).
func (c *Cache) Lookup3(level int, op uint8, f, g, h node.Ref) (Tagged, bool) {
	if c.segs3 == nil || c.segs3[level].entries == nil {
		c.misses++
		return 0, false
	}
	s := &c.segs3[level]
	e := &s.entries[hash4(op, f, g, h)&s.mask]
	if e.f == f && e.g == g && e.h == h && e.op == op && e.f != emptyF && e.gen == c.genFor(e.val) {
		c.hits++
		return e.val, true
	}
	c.misses++
	return 0, false
}

// Insert3 is Insert for a ternary operation. Ternary segments start small
// and grow under the same pressure rule as the binary ones.
func (c *Cache) Insert3(level int, op uint8, f, g, h node.Ref, val Tagged) {
	if c.segs3 == nil {
		c.segs3 = make([]segment3, len(c.segs))
	}
	s := &c.segs3[level]
	if s.entries == nil {
		s.entries = make([]entry3, 1<<initialBits)
		s.mask = 1<<initialBits - 1
		for i := range s.entries {
			s.entries[i].f = emptyF
		}
	} else if s.pressure > uint64(len(s.entries)) && uint64(len(s.entries)) < 1<<c.maxBits {
		old := s.entries
		s.entries = make([]entry3, len(old)*2)
		s.mask = uint64(len(s.entries)) - 1
		s.pressure = 0
		for i := range s.entries {
			s.entries[i].f = emptyF
		}
		for i := range old {
			e := &old[i]
			if e.f != emptyF && e.gen == c.genFor(e.val) {
				s.entries[hash4(e.op, e.f, e.g, e.h)&s.mask] = *e
			}
		}
	}
	s.pressure++
	c.inserts++
	e := &s.entries[hash4(op, f, g, h)&s.mask]
	e.op, e.f, e.g, e.h, e.val, e.gen = op, f, g, h, val, c.genFor(val)
}

// Update3 is Update for a ternary operation.
func (c *Cache) Update3(level int, op uint8, f, g, h node.Ref, val Tagged) {
	if c.segs3 == nil || c.segs3[level].entries == nil {
		return
	}
	s := &c.segs3[level]
	e := &s.entries[hash4(op, f, g, h)&s.mask]
	if e.f == f && e.g == g && e.h == h && e.op == op {
		e.val, e.gen = val, c.genFor(val)
	}
}
