// Package entity implements the global database: a set of named
// entities, each holding an integer value, plus consistency constraints
// used by tests to check that concurrency control preserves integrity.
//
// In the paper's model (§2, §4) the global value of an entity never
// changes while a transaction holds it locked: writers update a local
// copy, and the final value is installed when the entity is unlocked
// (or the transaction commits). The store therefore only sees
// installed, committed-or-unlocked values; rollback never needs to
// touch it.
//
// The store is also the interning point: defining an entity assigns it
// a dense intern.ID, and everything below the facade/wire/obs boundary
// (lock table, wait-for graph, per-transaction state) indexes by that
// ID instead of hashing the name. Values live in a slice indexed by ID,
// so the hot-path reads and installs are a bounds check and an array
// access under the lock.
package entity

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"partialrollback/internal/intern"
	"partialrollback/internal/page"
)

// Store is the global entity map. It is safe for concurrent use.
//
// Values live in one of two backends. The default (and historical)
// backend is two dense slices indexed by intern.ID — every access is a
// bounds check and an array read under the lock. The paged backend
// (NewPagedStore) replaces the slices with a page.Pool: a heap file
// plus a bounded buffer pool, so the entity space can outgrow RAM. The
// interning contract is identical either way — IDs are dense,
// append-only, and shared with the lock table and wait-for graph — so
// everything above this type is oblivious to the backend. Heap-file IO
// errors on the read path panic (like reads of undefined entities):
// the heap is this process's spill area and losing it mid-run is not a
// recoverable condition — durability lives in the WAL, not here.
type Store struct {
	mu          sync.RWMutex
	names       *intern.Table
	vals        []int64 // indexed by intern.ID (memory backend)
	defined     []bool  // indexed by intern.ID (memory backend)
	nDefined    int
	width       int // paged backend: 1 + highest ID ever defined
	pool        *page.Pool
	constraints []Constraint
	installHook func(name string, v int64)
}

// PagedConfig configures the paged (beyond-RAM) backend.
type PagedConfig struct {
	// Path is the heap file location. It is truncated on open: the heap
	// is a spill area, rebuilt from checkpoint + WAL by the durability
	// layer, never a source of truth.
	Path string
	// PageSize in bytes (default 4096) and PoolPages frames (default
	// 64) bound the pool's memory at roughly PageSize*PoolPages plus
	// the concurrently pinned working set.
	PageSize  int
	PoolPages int
	// OnMiss, when non-nil, observes each read-miss latency in
	// nanoseconds (wired to the obs histogram by internal/node).
	OnMiss func(ns int64)
}

// Constraint is a named predicate over a snapshot of the database,
// defining (part of) the set of consistent states.
type Constraint struct {
	Name  string
	Check func(snapshot map[string]int64) error
}

// NewStore creates a store with the given initial values.
func NewStore(initial map[string]int64) *Store {
	s := &Store{names: intern.NewTable()}
	// Deterministic ID assignment: define in sorted-name order.
	keys := make([]string, 0, len(initial))
	for k := range initial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Define(k, initial[k])
	}
	return s
}

// NewUniformStore creates a store with n entities named by prefix and
// index ("e0".."e{n-1}" for prefix "e"), all holding init.
func NewUniformStore(prefix string, n int, init int64) *Store {
	s := &Store{
		names:   intern.NewTable(),
		vals:    make([]int64, 0, n),
		defined: make([]bool, 0, n),
	}
	defineUniform(s, prefix, n, init)
	return s
}

// defineUniform defines prefix0..prefix{n-1}, formatting names into one
// reused buffer — multi-million-entity stores are too big for a
// fmt.Sprintf per name.
func defineUniform(s *Store, prefix string, n int, init int64) {
	buf := make([]byte, 0, len(prefix)+20)
	for i := 0; i < n; i++ {
		buf = append(buf[:0], prefix...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		s.Define(string(buf), init)
	}
}

// NewPagedStore creates a store over the paged backend with the given
// initial values. The caller owns the heap file path and should Close
// the store on shutdown (Close flushes and releases the heap file).
func NewPagedStore(initial map[string]int64, cfg PagedConfig) (*Store, error) {
	pool, err := page.Open(cfg.Path, page.Options{
		PageSize:  cfg.PageSize,
		PoolPages: cfg.PoolPages,
		OnMiss:    cfg.OnMiss,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{names: intern.NewTable(), pool: pool}
	keys := make([]string, 0, len(initial))
	for k := range initial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Define(k, initial[k])
	}
	return s, nil
}

// NewUniformPagedStore is NewUniformStore over the paged backend.
func NewUniformPagedStore(prefix string, n int, init int64, cfg PagedConfig) (*Store, error) {
	pool, err := page.Open(cfg.Path, page.Options{
		PageSize:  cfg.PageSize,
		PoolPages: cfg.PoolPages,
		OnMiss:    cfg.OnMiss,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{names: intern.NewTable(), pool: pool}
	defineUniform(s, prefix, n, init)
	return s, nil
}

// Paged reports whether this store runs over the paged backend.
func (s *Store) Paged() bool { return s.pool != nil }

// PoolStats returns the paged backend's counters (zero if memory-backed).
func (s *Store) PoolStats() page.Stats {
	if s.pool == nil {
		return page.Stats{}
	}
	return s.pool.Stats()
}

// PinID faults the entity's page resident and holds it there until
// UnpinID; a no-op on the memory backend. The engine pins a
// transaction's whole lock set at registration (the structural path,
// where IO is allowed) so steps never fault.
func (s *Store) PinID(id intern.ID) error {
	if s.pool == nil {
		return nil
	}
	return s.pool.Pin(uint32(id))
}

// UnpinID releases one PinID; a no-op on the memory backend.
func (s *Store) UnpinID(id intern.ID) {
	if s.pool != nil {
		s.pool.Unpin(uint32(id))
	}
}

// Flush writes all dirty pages to the heap file (no-op if memory-backed).
func (s *Store) Flush() error {
	if s.pool == nil {
		return nil
	}
	return s.pool.FlushAll()
}

// Close flushes and closes the paged backend (no-op if memory-backed).
func (s *Store) Close() error {
	if s.pool == nil {
		return nil
	}
	return s.pool.Close()
}

// Interner exposes the store's name↔ID table. The lock table, wait-for
// graph and transaction state share it so every layer agrees on IDs.
func (s *Store) Interner() *intern.Table { return s.names }

// IDOf returns the intern ID for a defined entity name.
func (s *Store) IDOf(name string) (intern.ID, bool) {
	id, ok := s.names.Lookup(name)
	if !ok {
		return intern.None, false
	}
	if _, ok := s.GetID(id); !ok {
		return intern.None, false
	}
	return id, true
}

// NameOf resolves an intern ID back to the entity name (boundary use:
// events, snapshots, wire responses).
func (s *Store) NameOf(id intern.ID) string { return s.names.Name(id) }

// Get returns the global value of name. Unknown entities read as zero
// with ok=false.
func (s *Store) Get(name string) (int64, bool) {
	id, ok := s.names.Lookup(name)
	if !ok {
		return 0, false
	}
	return s.GetID(id)
}

// GetID is Get by intern ID — the hot-path read.
func (s *Store) GetID(id intern.ID) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.pool != nil {
		if int(id) >= s.width {
			return 0, false
		}
		v, ok, err := s.pool.Read(uint32(id))
		if err != nil {
			panic(fmt.Sprintf("entity: paged read of %q: %v", s.names.Name(id), err))
		}
		return v, ok
	}
	if int(id) >= len(s.defined) || !s.defined[id] {
		return 0, false
	}
	return s.vals[id], true
}

// MustGet returns the global value of name, panicking if absent. The
// concurrency control only reads entities that exist (lock requests
// create them implicitly via Define or fail validation upstream).
func (s *Store) MustGet(name string) int64 {
	v, ok := s.Get(name)
	if !ok {
		panic(fmt.Sprintf("entity: undefined entity %q", name))
	}
	return v
}

// MustGetID is MustGet by intern ID.
func (s *Store) MustGetID(id intern.ID) int64 {
	v, ok := s.GetID(id)
	if !ok {
		panic(fmt.Sprintf("entity: undefined entity %q", s.names.Name(id)))
	}
	return v
}

// Define creates or overwrites an entity outside any transaction
// (setup only), interning its name, and returns the entity's ID.
func (s *Store) Define(name string, v int64) intern.ID {
	id := s.names.Intern(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pool != nil {
		fresh, err := s.pool.Define(uint32(id), v)
		if err != nil {
			panic(fmt.Sprintf("entity: paged define of %q: %v", name, err))
		}
		if fresh {
			s.nDefined++
		}
		if int(id) >= s.width {
			s.width = int(id) + 1
		}
		return id
	}
	for int(id) >= len(s.vals) {
		s.vals = append(s.vals, 0)
		s.defined = append(s.defined, false)
	}
	if !s.defined[id] {
		s.defined[id] = true
		s.nDefined++
	}
	s.vals[id] = v
	return id
}

// Exists reports whether name is defined.
func (s *Store) Exists(name string) bool {
	_, ok := s.Get(name)
	return ok
}

// Install sets the global value of name; called by the concurrency
// control when an exclusively locked entity is unlocked or its
// transaction commits. The install hook, if set, observes the write
// before it becomes visible (write-ahead logging).
func (s *Store) Install(name string, v int64) error {
	id, ok := s.names.Lookup(name)
	if !ok {
		return fmt.Errorf("entity: install to undefined entity %q", name)
	}
	return s.InstallID(id, v)
}

// InstallID is Install by intern ID — the hot-path write.
func (s *Store) InstallID(id intern.ID, v int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pool != nil {
		// Defined check first (the hook must only observe installs that
		// will succeed), then hook, then write — same write-ahead
		// ordering as the memory path. The read faults the page in, so
		// the write is a guaranteed hit.
		if int(id) >= s.width {
			return fmt.Errorf("entity: install to undefined entity %q", s.names.Name(id))
		}
		_, def, err := s.pool.Read(uint32(id))
		if err != nil {
			panic(fmt.Sprintf("entity: paged install of %q: %v", s.names.Name(id), err))
		}
		if !def {
			return fmt.Errorf("entity: install to undefined entity %q", s.names.Name(id))
		}
		if s.installHook != nil {
			s.installHook(s.names.Name(id), v)
		}
		if _, err := s.pool.Write(uint32(id), v); err != nil {
			panic(fmt.Sprintf("entity: paged install of %q: %v", s.names.Name(id), err))
		}
		return nil
	}
	if int(id) >= len(s.defined) || !s.defined[id] {
		return fmt.Errorf("entity: install to undefined entity %q", s.names.Name(id))
	}
	if s.installHook != nil {
		s.installHook(s.names.Name(id), v)
	}
	s.vals[id] = v
	return nil
}

// SetInstallHook registers a callback invoked under the store lock
// before every Install takes effect. Used by internal/wal to log
// installations durably ahead of visibility. Pass nil to clear.
func (s *Store) SetInstallHook(h func(name string, v int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installHook = h
}

// Snapshot returns a copy of all values.
func (s *Store) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, s.nDefined)
	if s.pool != nil {
		vals, defined := s.snapshotPagedLocked(nil, nil)
		for id, def := range defined {
			if def {
				out[s.names.Name(intern.ID(id))] = vals[id]
			}
		}
		return out
	}
	for id, def := range s.defined {
		if def {
			out[s.names.Name(intern.ID(id))] = s.vals[id]
		}
	}
	return out
}

// snapshotPagedLocked scans the paged backend into vals/defined (grown
// as needed). Caller holds at least s.mu.RLock; a consistent snapshot
// additionally needs writers excluded (the checkpoint path runs under
// the engine quiesce).
func (s *Store) snapshotPagedLocked(vals []int64, defined []bool) ([]int64, []bool) {
	if cap(vals) < s.width {
		vals = make([]int64, s.width)
	} else {
		vals = vals[:s.width]
	}
	if cap(defined) < s.width {
		defined = make([]bool, s.width)
	} else {
		defined = defined[:s.width]
	}
	if err := s.pool.SnapshotRange(s.width, vals, defined); err != nil {
		panic(fmt.Sprintf("entity: paged snapshot: %v", err))
	}
	return vals, defined
}

// SnapshotSlices copies the dense value and defined slices into the
// caller's buffers (grown as needed) and returns them along with the
// defined-entity count — the checkpoint writer's fast alternative to
// Snapshot: one read-lock hold covering two memcpys, no per-entity
// allocation. Index i holds the value of intern.ID(i); names can be
// resolved after the call via NameOf, because the intern table is
// append-only and IDs stay valid once the lock is released.
func (s *Store) SnapshotSlices(vals []int64, defined []bool) ([]int64, []bool, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.pool != nil {
		vals, defined = s.snapshotPagedLocked(vals, defined)
		return vals, defined, s.nDefined
	}
	vals = append(vals[:0], s.vals...)
	defined = append(defined[:0], s.defined...)
	return vals, defined, s.nDefined
}

// Restore replaces the entire contents with snap (setup/test helper).
// Names absent from snap become undefined; their intern IDs remain
// reserved (IDs are never reused).
func (s *Store) Restore(snap map[string]int64) {
	s.mu.Lock()
	if s.pool != nil {
		for id := 0; id < s.width; id++ {
			if _, err := s.pool.Undefine(uint32(id)); err != nil {
				panic(fmt.Sprintf("entity: paged restore: %v", err))
			}
		}
	}
	for i := range s.defined {
		s.defined[i] = false
	}
	s.nDefined = 0
	s.mu.Unlock()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Define(k, snap[k])
	}
}

// Names returns all entity names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, s.nDefined)
	if s.pool != nil {
		_, defined := s.snapshotPagedLocked(nil, nil)
		for id, def := range defined {
			if def {
				out = append(out, s.names.Name(intern.ID(id)))
			}
		}
		sort.Strings(out)
		return out
	}
	for id, def := range s.defined {
		if def {
			out = append(out, s.names.Name(intern.ID(id)))
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of entities.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nDefined
}

// AddConstraint registers a consistency constraint.
func (s *Store) AddConstraint(c Constraint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.constraints = append(s.constraints, c)
}

// CheckConsistent evaluates all constraints against the current state
// and returns the first violation, if any.
func (s *Store) CheckConsistent() error {
	snap := s.Snapshot()
	s.mu.RLock()
	cs := append([]Constraint(nil), s.constraints...)
	s.mu.RUnlock()
	for _, c := range cs {
		if err := c.Check(snap); err != nil {
			return fmt.Errorf("entity: constraint %q violated: %w", c.Name, err)
		}
	}
	return nil
}

// SumConstraint returns a constraint asserting that the listed entities
// always sum to want — the canonical bank-transfer invariant.
func SumConstraint(name string, want int64, entities ...string) Constraint {
	return Constraint{
		Name: name,
		Check: func(snap map[string]int64) error {
			var sum int64
			for _, e := range entities {
				v, ok := snap[e]
				if !ok {
					return fmt.Errorf("entity %q missing", e)
				}
				sum += v
			}
			if sum != want {
				return fmt.Errorf("sum = %d, want %d", sum, want)
			}
			return nil
		},
	}
}

// NonNegativeConstraint returns a constraint asserting the listed
// entities never go negative.
func NonNegativeConstraint(name string, entities ...string) Constraint {
	return Constraint{
		Name: name,
		Check: func(snap map[string]int64) error {
			for _, e := range entities {
				if v := snap[e]; v < 0 {
					return fmt.Errorf("entity %q = %d (negative)", e, v)
				}
			}
			return nil
		},
	}
}
