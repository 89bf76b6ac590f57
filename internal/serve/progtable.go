package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"optiwise"
)

// programSlots bounds how many assembled programs the table retains.
const programSlots = 64

// programTable memoizes assembly across submissions: a resubmitted
// (module, source) pair gets the *optiwise.Program assembled the first
// time instead of a fresh copy. Jobs, coalesced groups and cached
// results all hold their program, so without sharing every retained
// job would pin its own copy of the same text. Sharing is safe because
// a Program is immutable once assembled: simulation and
// instrumentation load it into a private image, and no package writes
// to its tables.
//
// Entries are keyed by a SHA-256 of the pair. The table never holds
// more than programSlots programs: past that, the oldest entry is
// dropped, and it stays alive only as long as something else
// references it. Failed assemblies are not cached.
type programTable struct {
	mu    sync.Mutex
	progs map[[sha256.Size]byte]*optiwise.Program
	// order lists the keys in insertion order, as a ring whose oldest
	// entry is order[next] once the table is full.
	order [programSlots][sha256.Size]byte
	next  int
}

// assemble returns the program for (module, source), assembling it only
// when the table does not already hold it.
func (t *programTable) assemble(module, source string) (*optiwise.Program, error) {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(module)))
	h.Write(n[:])
	h.Write([]byte(module))
	h.Write([]byte(source))
	var key [sha256.Size]byte
	h.Sum(key[:0])

	t.mu.Lock()
	prog, ok := t.progs[key]
	t.mu.Unlock()
	if ok {
		return prog, nil
	}
	prog, err := optiwise.Assemble(module, source)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if have, ok := t.progs[key]; ok {
		return have, nil // a concurrent submission assembled it first
	}
	if t.progs == nil {
		t.progs = make(map[[sha256.Size]byte]*optiwise.Program, programSlots)
	}
	if len(t.progs) == programSlots {
		delete(t.progs, t.order[t.next])
	}
	t.progs[key] = prog
	t.order[t.next] = key
	t.next = (t.next + 1) % programSlots
	return prog, nil
}
