// Package coherence implements a directory-based MESI protocol for the
// private L1 caches sharing an inclusive L2, plus the paper's GetS-Safe
// transaction (Section 3.5): a read request that succeeds only if it does
// not force a remote M/E -> S downgrade. CleanupSpec issues GetS-Safe for
// speculative loads and falls back to a delayed ordinary GetS once the load
// is unsquashable, so a transient load can never cause an observable
// coherence downgrade in a remote cache.
//
// The directory tracks, per line, the owning core (M/E) or the sharer set
// (S). The actual per-core tag arrays live in internal/cache; callers apply
// the directory's prescribed downgrades/invalidations to those arrays.
// The paper randomizes the directory's indexing along with the L2 to defeat
// directory-conflict attacks (Yan et al., S&P'19); this model keys the
// directory by full line address, which makes such conflicts impossible by
// construction and is noted as the modeling equivalent in DESIGN.md.
package coherence

import (
	"fmt"

	"repro/internal/arch"
)

// Source says where the data for a grant came from.
type Source int

const (
	// SrcMemory means the line came from DRAM (or the shared L2 missed).
	SrcMemory Source = iota
	// SrcShared means the shared L2 supplied the data.
	SrcShared
	// SrcRemote means a remote L1 supplied the data (cache-to-cache).
	SrcRemote
)

func (s Source) String() string {
	switch s {
	case SrcMemory:
		return "memory"
	case SrcShared:
		return "shared"
	case SrcRemote:
		return "remote"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Grant describes the outcome of a directory transaction: the state granted
// to the requester and the remote actions the caller must apply.
type Grant struct {
	// State is the MESI state granted to the requesting core.
	State arch.CohState
	// Downgrades lists remote cores whose copy must go M/E -> S.
	Downgrades []int
	// Invalidates lists remote cores whose copy must be invalidated.
	Invalidates []int
	// Source is where the data is supplied from.
	Source Source
	// RemoteOwned reports that the line was in a remote M/E before this
	// request — the condition that makes a speculative GetS unsafe.
	RemoteOwned bool
}

type entry struct {
	owner   int    // core holding E/M, -1 if none
	sharers uint64 // bitmask of cores holding S
	dirty   bool   // owner's copy is Modified (for writeback accounting)
}

// Stats counts directory transactions.
type Stats struct {
	GetS         uint64
	GetSSafe     uint64
	GetSSafeFail uint64
	GetX         uint64
	Downgrades   uint64
	Invalidates  uint64
	Writebacks   uint64
	Flushes      uint64
}

// Directory is the MESI directory. Entries are stored by value, so
// tracking a line costs a map slot (reused after the line's last holder
// leaves) rather than a heap object.
type Directory struct {
	cores   int
	entries map[arch.LineAddr]entry

	Stats Stats
}

// NewDirectory creates a directory for cores cores (max 64).
func NewDirectory(cores int) *Directory {
	if cores <= 0 || cores > 64 {
		panic(fmt.Sprintf("coherence: bad core count %d", cores))
	}
	return &Directory{cores: cores, entries: make(map[arch.LineAddr]entry)}
}

// Cores returns the number of cores the directory tracks.
func (d *Directory) Cores() int { return d.cores }

// get returns l's entry, or an untracked one (no owner, no sharers); the
// caller stores it back with d.entries[l] = e.
func (d *Directory) get(l arch.LineAddr) entry {
	if e, ok := d.entries[l]; ok {
		return e
	}
	return entry{owner: -1}
}

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.cores {
		//simlint:allow hotalloc -- protocol invariant: an out-of-range core id means the simulator state is already corrupt; the Sprintf runs only on that terminal panic path
		panic(fmt.Sprintf("coherence: core %d out of range [0,%d)", core, d.cores))
	}
}

// State returns the directory's view of core's copy of l.
func (d *Directory) State(core int, l arch.LineAddr) arch.CohState {
	d.checkCore(core)
	e, ok := d.entries[l]
	if !ok {
		return arch.Invalid
	}
	if e.owner == core {
		if e.dirty {
			return arch.Modified
		}
		return arch.Exclusive
	}
	if e.sharers&(1<<uint(core)) != 0 {
		return arch.Shared
	}
	return arch.Invalid
}

// RemoteOwner returns the core (other than asker) holding l in M/E, or -1.
func (d *Directory) RemoteOwner(asker int, l arch.LineAddr) int {
	if e, ok := d.entries[l]; ok && e.owner >= 0 && e.owner != asker {
		return e.owner
	}
	return -1
}

// GetS is an ordinary read request: the requester gets S (or E if no other
// copy exists); a remote M/E owner is downgraded to S.
func (d *Directory) GetS(core int, l arch.LineAddr) Grant {
	d.checkCore(core)
	d.Stats.GetS++
	return d.getS(core, l)
}

func (d *Directory) getS(core int, l arch.LineAddr) Grant {
	e := d.get(l)
	bit := uint64(1) << uint(core)
	var g Grant
	switch {
	case e.owner == core:
		// Already owned locally; nothing to do.
		st := arch.Exclusive
		if e.dirty {
			st = arch.Modified
		}
		return Grant{State: st, Source: SrcShared}
	case e.owner >= 0:
		// Remote owner: downgrade to S, both become sharers.
		g = Grant{
			State: arch.Shared,
			//simlint:allow hotalloc -- one-element downgrade list per remote-owned GetS; bounded by the (rare) cross-core sharing event, not per cycle
			Downgrades:  []int{e.owner},
			Source:      SrcRemote,
			RemoteOwned: true,
		}
		d.Stats.Downgrades++
		if e.dirty {
			d.Stats.Writebacks++ // owner writes back on downgrade
		}
		e.sharers = (1 << uint(e.owner)) | bit
		e.owner = -1
		e.dirty = false
	case e.sharers != 0:
		e.sharers |= bit
		g = Grant{State: arch.Shared, Source: SrcShared}
	default:
		// Sole copy: grant Exclusive.
		e.owner = core
		g = Grant{State: arch.Exclusive, Source: SrcMemory}
	}
	d.entries[l] = e
	return g
}

// GetSSafe is the paper's safe read: identical to GetS unless it would
// downgrade a remote M/E owner, in which case it fails with no state change
// and the caller must retry with GetS once the load is unsquashable.
func (d *Directory) GetSSafe(core int, l arch.LineAddr) (Grant, bool) {
	d.checkCore(core)
	d.Stats.GetSSafe++
	if d.RemoteOwner(core, l) >= 0 {
		d.Stats.GetSSafeFail++
		return Grant{RemoteOwned: true}, false
	}
	return d.getS(core, l), true
}

// GetX is a write (RFO) request: all other copies are invalidated and the
// requester gets M.
func (d *Directory) GetX(core int, l arch.LineAddr) Grant {
	d.checkCore(core)
	d.Stats.GetX++
	e := d.get(l)
	g := Grant{State: arch.Modified}
	switch {
	case e.owner == core:
		g.Source = SrcShared
	case e.owner >= 0:
		//simlint:allow hotalloc -- invalidation fan-out per GetX is bounded by the core count; GetX events are store misses, not per cycle
		g.Invalidates = append(g.Invalidates, e.owner)
		g.Source = SrcRemote
		g.RemoteOwned = true
		if e.dirty {
			d.Stats.Writebacks++
		}
	default:
		g.Source = SrcShared
		for c := 0; c < d.cores; c++ {
			if c != core && e.sharers&(1<<uint(c)) != 0 {
				//simlint:allow hotalloc -- invalidation fan-out per GetX is bounded by the core count; GetX events are store misses, not per cycle
				g.Invalidates = append(g.Invalidates, c)
			}
		}
	}
	d.Stats.Invalidates += uint64(len(g.Invalidates))
	e.owner = core
	e.dirty = true
	e.sharers = 0
	d.entries[l] = e
	return g
}

// Evict tells the directory core dropped its copy of l (clean eviction or
// writeback; writebacks are counted when dirty is true).
func (d *Directory) Evict(core int, l arch.LineAddr, dirty bool) {
	d.checkCore(core)
	e, ok := d.entries[l]
	if !ok {
		return
	}
	if e.owner == core {
		if dirty || e.dirty {
			d.Stats.Writebacks++
		}
		e.owner = -1
		e.dirty = false
	}
	e.sharers &^= 1 << uint(core)
	if e.owner < 0 && e.sharers == 0 {
		delete(d.entries, l)
		return
	}
	d.entries[l] = e
}

// Flush implements clflush's coherence action: every copy of l anywhere is
// invalidated. It returns the cores that held a copy. CleanupSpec delays
// the *execution* of a transient clflush until commit (Section 3.5,
// Table 2); the delay lives in the CPU model — by the time Flush is called
// the instruction is non-speculative.
func (d *Directory) Flush(l arch.LineAddr) []int {
	e, ok := d.entries[l]
	if !ok {
		return nil
	}
	var holders []int
	if e.owner >= 0 {
		//simlint:allow hotalloc -- holder list is bounded by the core count and built once per clflush, which executes only at commit
		holders = append(holders, e.owner)
		if e.dirty {
			d.Stats.Writebacks++
		}
	}
	for c := 0; c < d.cores; c++ {
		if e.sharers&(1<<uint(c)) != 0 {
			//simlint:allow hotalloc -- holder list is bounded by the core count and built once per clflush, which executes only at commit
			holders = append(holders, c)
		}
	}
	d.Stats.Invalidates += uint64(len(holders))
	d.Stats.Flushes++
	delete(d.entries, l)
	return holders
}

// Check verifies the protocol invariants over all tracked lines:
// single-writer (an owner excludes all sharers) and sharer masks within the
// configured core count. It returns the first violation found.
func (d *Directory) Check() error {
	//simlint:ordered -- invariant sweep returns an arbitrary first violation; which one is reported never affects simulation state
	for l, e := range d.entries {
		if e.owner >= d.cores {
			return fmt.Errorf("line %v: owner %d out of range", l, e.owner)
		}
		if e.owner >= 0 && e.sharers != 0 {
			return fmt.Errorf("line %v: owner %d coexists with sharers %b", l, e.owner, e.sharers)
		}
		if e.sharers>>uint(d.cores) != 0 {
			return fmt.Errorf("line %v: sharer mask %b exceeds %d cores", l, e.sharers, d.cores)
		}
		if e.owner < 0 && e.sharers == 0 {
			return fmt.Errorf("line %v: empty entry not garbage-collected", l)
		}
		if e.dirty && e.owner < 0 {
			return fmt.Errorf("line %v: dirty without owner", l)
		}
	}
	return nil
}

// Lines returns the number of tracked lines (tests only).
func (d *Directory) Lines() int { return len(d.entries) }
