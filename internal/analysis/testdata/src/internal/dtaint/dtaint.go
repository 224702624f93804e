// Package dtaint is the determinism analyzer's interprocedural golden
// input: wall and rand taint must travel through returns, fields,
// closures, and sink parameters — reporting-only wall reads stay silent —
// and the maps.Keys/maps.Values iterator form must obey the same
// collect-then-sort obligation as a map range.
package dtaint

import (
	"maps"
	"math/rand"
	"slices"
	"time"

	"example.com/lint/internal/xrand"
)

// wallSeed returns a wall-clock-derived value; callers inherit the taint
// through the return summary.
func wallSeed() uint64 {
	return uint64(time.Now().UnixNano())
}

// BadSeedFromClock feeds wall taint into the seed derivation through a
// helper's return value.
func BadSeedFromClock() *xrand.Rand {
	s := wallSeed()
	return xrand.New(s) // want `value derived from the wall clock \(time.Now\) reaches the xrand.New seed/ID derivation`
}

// BadDirectRand calls ambient math/rand: reported unconditionally, with
// no sink required.
func BadDirectRand() int {
	return rand.Int() // want `call into math/rand: simulator randomness must flow through explicitly seeded internal/xrand generators`
}

// carrier persists taint in a struct field written far from the sink.
type carrier struct{ base uint64 }

// fill stores a wall-derived value into the field.
func fill(c *carrier) {
	c.base = wallSeed()
}

// BadSeedFromField reads the tainted field into the hash sink; the flow
// crosses two functions and a field.
func BadSeedFromField(c *carrier) uint64 {
	fill(c)
	return xrand.Hash64(c.base) // want `value derived from the wall clock \(time.Now\) reaches the xrand.Hash64 seed/ID derivation`
}

// deriveID forwards its parameter into the hash: the parameter becomes a
// sink, so every call site of deriveID is one too.
func deriveID(x uint64) uint64 {
	return xrand.Hash64(x)
}

// BadTransitiveSink reaches the hash through the helper's sink parameter.
func BadTransitiveSink() uint64 {
	return deriveID(wallSeed()) // want `value derived from the wall clock \(time.Now\) reaches deriveID, whose parameter feeds a key/ID/stats derivation`
}

// BadClosureFlow sources and sinks inside a function literal, which has
// its own call-graph node.
func BadClosureFlow() uint64 {
	f := func() uint64 {
		return xrand.Hash64(wallSeed()) // want `value derived from the wall clock \(time.Now\) reaches the xrand.Hash64 seed/ID derivation`
	}
	return f()
}

// BadIterOrderIntoHash hashes map keys in iterator order: the collect is
// a pending origin that is never sorted before its use.
func BadIterOrderIntoHash(m map[uint64]int) uint64 {
	keys := slices.Collect(maps.Keys(m)) // want `slices.Collect\(maps.Keys\(m\)\): iteration order is randomized and the collected slice is used on a path where it was not sorted`
	return xrand.Hash64(keys...)
}

// BadIterSortedOnOneBranch sorts the collected keys on one path only: the
// join at the sink is not provably sorted.
func BadIterSortedOnOneBranch(m map[uint64]int, c bool) uint64 {
	keys := slices.Collect(maps.Keys(m)) // want `slices.Collect\(maps.Keys\(m\)\): iteration order is randomized and the collected slice is used on a path where it was not sorted`
	if c {
		slices.Sort(keys)
	}
	return xrand.Hash64(keys...)
}

// sortWords sorts its argument; the sorter summary learns this.
func sortWords(ws []uint64) {
	slices.Sort(ws)
}

// GoodIterSortedInHelper sorts the collected keys through a module
// helper: no finding.
func GoodIterSortedInHelper(m map[uint64]int) uint64 {
	keys := slices.Collect(maps.Keys(m))
	sortWords(keys)
	return xrand.Hash64(keys...)
}

// BadRangeCollectIntoHash collects with a range loop and hashes the
// unsorted slice: one defect, so exactly one finding, at the loop.
func BadRangeCollectIntoHash(m map[uint64]int) uint64 {
	var keys []uint64
	for k := range m { // want `range over map m: iteration order is randomized and the collected slice is used on a path where it was not sorted`
		keys = append(keys, k)
	}
	return xrand.Hash64(keys...)
}

// BadRangeOverValues ranges over the iterator form directly: there is no
// collect to sort, so the iterator itself is the finding.
func BadRangeOverValues(m map[uint64]int) int {
	n := 0
	for v := range maps.Values(m) { // want `maps.Values\(m\): iteration order is randomized`
		n = n*31 + v
	}
	return n
}

// GoodSortedKeys launders iterator order with the blessed idiom before
// the sink: no finding.
func GoodSortedKeys(m map[uint64]int) uint64 {
	keys := slices.Sorted(maps.Keys(m))
	return xrand.Hash64(keys...)
}

// GoodStatementSorted launders with a statement-level sort between the
// collect and the sink: no finding.
func GoodStatementSorted(m map[uint64]int) uint64 {
	keys := slices.Collect(maps.Keys(m))
	slices.Sort(keys)
	return xrand.Hash64(keys...)
}

// RunStats accumulates run-level numbers; fields of *Stats structs are
// determinism sinks for wall and rand taint.
type RunStats struct {
	Elapsed uint64
}

// BadWallIntoStats folds a wall reading into an exported stat: serial and
// parallel runs would export different numbers.
func BadWallIntoStats(s *RunStats) {
	s.Elapsed = wallSeed() // want `value derived from the wall clock \(time.Now\) reaches stats accumulation field RunStats.Elapsed`
}

// GoodMapCountIntoStats accumulates a commutative total over a map: map
// order is no stats taint, so only the directive on the loop is needed.
func GoodMapCountIntoStats(s *RunStats, m map[uint64]int) {
	n := uint64(0)
	//simlint:ordered -- integer summation is commutative; the total is order-independent
	for k := range m {
		n += k
	}
	s.Elapsed = n
}

// GoodReportingWall reads the clock for reporting only: there is no sink
// on the flow, so no finding and no directive needed — this is exactly
// the case the old syntactic time.Now check over-reported.
func GoodReportingWall() string {
	return time.Now().Format(time.RFC3339)
}

// BadOrderedOverWallFlow: //simlint:ordered excuses map order only, so it
// neither hides a wall-clock flow nor counts as a live suppression.
func BadOrderedOverWallFlow() uint64 {
	//simlint:ordered -- misapplied: this line iterates no map // want `stale //simlint:ordered directive`
	return xrand.Hash64(wallSeed()) // want `value derived from the wall clock \(time.Now\) reaches the xrand.Hash64 seed/ID derivation`
}

// BadAllowOverMapRange: map order yields only to //simlint:ordered, so
// an allow directive leaves the range reported and is itself stale.
func BadAllowOverMapRange(m map[uint64]int) int {
	n := 0
	//simlint:allow determinism -- misapplied: map order takes //simlint:ordered // want `stale //simlint:allow directive`
	for _, v := range m { // want `range over map m: iteration order is randomized`
		n = n*31 + v
	}
	return n
}
