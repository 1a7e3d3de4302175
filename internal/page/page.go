// Package page implements the beyond-RAM entity backend: a heap file
// of fixed-size pages of entity slots plus a bounded buffer pool with
// CLOCK replacement, flush-before-evict, and per-slot pinning.
//
// The paper's deferred-update discipline (§4) is what keeps this layer
// free of recovery machinery: the global store only ever holds
// committed-or-unlocked values — uncommitted work lives in
// per-transaction copies that die with the process — so an evicted page
// needs no undo hooks and no write-ahead ordering of its own. The heap
// file is a spill area, not a durability source: crash recovery rebuilds
// the store from the checkpoint base plus the WAL tail (internal/durable
// handles both), and Open therefore truncates any previous heap file.
//
// # Pin protocol
//
// The engine pins every entity in a transaction's lock set when the
// transaction registers and unpins at commit or abort. Pin faults the
// slot's page resident and holds it there — a pinned page is never
// chosen for eviction — so the engine's steps read and install through
// the pool without ever touching the disk: every miss happens at
// registration, before the step that needs the value.
//
// If every frame is pinned when a fault needs one, the pool
// over-allocates a frame beyond its configured capacity rather than
// deadlock (counted in Stats.OverCap); the frame count settles back
// toward the cap as pins drain, because eviction is always preferred
// over allocation once the pool is at or above capacity. Memory is
// therefore bounded by max(PoolPages, concurrently-pinned pages + 1).
//
// # Page layout
//
// A page of PageSize bytes holds n = PageSize*8/65 slots: n little-
// endian int64 values followed by an n-bit defined bitmap. A slot id
// maps to page id/n, slot id%n. Pages absent from the file (beyond EOF,
// or within a hole) read as all-zero: every slot undefined.
package page

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Options tunes a Pool.
type Options struct {
	// PageSize is the page size in bytes. Default 4096, minimum 128.
	PageSize int
	// PoolPages is the buffer-pool capacity in frames. Default 64,
	// minimum 2.
	PoolPages int
	// OnMiss, when non-nil, observes the wall nanoseconds of each read
	// miss (victim selection + flush-before-evict + page read), called
	// outside no locks but with the pool mutex held — keep it to an
	// atomic observation (the obs histogram qualifies).
	OnMiss func(ns int64)
}

// Stats is a point-in-time counter snapshot of a Pool.
type Stats struct {
	// Hits and Misses count slot accesses served by a resident page vs
	// ones that faulted the page in from the heap file.
	Hits   int64
	Misses int64
	// Evictions counts pages dropped from the pool to make room;
	// Flushes counts page writes to the heap file (flush-before-evict
	// plus explicit FlushAll work).
	Evictions int64
	Flushes   int64
	// PinnedPages is the number of currently pinned frames (gauge).
	PinnedPages int64
	// Frames is the number of allocated frames (gauge; normally the
	// configured capacity once warm). OverCap counts faults that had to
	// allocate beyond capacity because every frame was pinned.
	Frames  int64
	OverCap int64
	// HeapPages is the number of pages the heap file spans (gauge).
	HeapPages int64
}

// frame is one buffer-pool slot.
type frame struct {
	pageNo uint32
	data   []byte
	valid  bool // holds a page
	dirty  bool
	pins   int
	ref    bool // CLOCK reference bit
}

// Pool is the paged entity backend: a heap file plus a bounded frame
// cache. All methods are safe for concurrent use (one internal mutex —
// the engine and the checkpointer call in concurrently).
type Pool struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	pageSize int
	perPage  int
	cap      int
	frames   []*frame
	table    map[uint32]*frame
	hand     int
	maxPage  uint32 // highest pageNo ever touched + 1
	stats    Stats
	onMiss   func(ns int64)
	closed   bool

	scratch []byte // SnapshotRange read buffer for non-resident pages
}

// PerPage returns the number of entity slots per page for a page size.
func PerPage(pageSize int) int { return pageSize * 8 / 65 }

// Open creates the heap file at path (truncating any previous content:
// the heap is a spill area, rebuilt from the WAL and checkpoint base by
// the durability layer) and returns an empty pool over it.
func Open(path string, opts Options) (*Pool, error) {
	if opts.PageSize == 0 {
		opts.PageSize = 4096
	}
	if opts.PageSize < 128 {
		return nil, fmt.Errorf("page: page size %d below minimum 128", opts.PageSize)
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 64
	}
	if opts.PoolPages < 2 {
		return nil, fmt.Errorf("page: pool of %d pages below minimum 2", opts.PoolPages)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("page: open heap: %w", err)
	}
	return &Pool{
		f:        f,
		path:     path,
		pageSize: opts.PageSize,
		perPage:  PerPage(opts.PageSize),
		cap:      opts.PoolPages,
		table:    make(map[uint32]*frame, opts.PoolPages),
		onMiss:   opts.OnMiss,
		scratch:  make([]byte, opts.PageSize),
	}, nil
}

// Path returns the heap file path.
func (p *Pool) Path() string { return p.path }

// SlotsPerPage returns the number of entity slots each page holds.
func (p *Pool) SlotsPerPage() int { return p.perPage }

// Cap returns the configured pool capacity in frames.
func (p *Pool) Cap() int { return p.cap }

var errClosed = errors.New("page: pool closed")

// locate splits a slot id into its page number and in-page slot index.
func (p *Pool) locate(id uint32) (pageNo uint32, slot int) {
	return id / uint32(p.perPage), int(id % uint32(p.perPage))
}

// slotValue reads slot s of a raw page image.
func (p *Pool) slotValue(data []byte, s int) (int64, bool) {
	bit := data[p.perPage*8+s/8] & (1 << (s % 8))
	if bit == 0 {
		return 0, false
	}
	off := s * 8
	v := uint64(data[off]) | uint64(data[off+1])<<8 | uint64(data[off+2])<<16 | uint64(data[off+3])<<24 |
		uint64(data[off+4])<<32 | uint64(data[off+5])<<40 | uint64(data[off+6])<<48 | uint64(data[off+7])<<56
	return int64(v), true
}

// setSlot writes slot s of a raw page image and sets/clears its
// defined bit.
func (p *Pool) setSlot(data []byte, s int, v int64, defined bool) {
	off := s * 8
	u := uint64(v)
	data[off] = byte(u)
	data[off+1] = byte(u >> 8)
	data[off+2] = byte(u >> 16)
	data[off+3] = byte(u >> 24)
	data[off+4] = byte(u >> 32)
	data[off+5] = byte(u >> 40)
	data[off+6] = byte(u >> 48)
	data[off+7] = byte(u >> 56)
	mask := byte(1 << (s % 8))
	if defined {
		data[p.perPage*8+s/8] |= mask
	} else {
		data[p.perPage*8+s/8] &^= mask
	}
}

// frameFor returns the resident frame for pageNo, faulting it in if
// needed. Caller holds p.mu.
func (p *Pool) frameFor(pageNo uint32) (*frame, error) {
	if fr, ok := p.table[pageNo]; ok {
		fr.ref = true
		p.stats.Hits++
		return fr, nil
	}
	p.stats.Misses++
	var t0 time.Time
	if p.onMiss != nil {
		t0 = time.Now()
	}
	fr, err := p.victim()
	if err != nil {
		return nil, err
	}
	if err := p.readPage(pageNo, fr.data); err != nil {
		fr.valid = false
		return nil, err
	}
	fr.pageNo = pageNo
	fr.valid = true
	fr.dirty = false
	fr.pins = 0
	fr.ref = true
	p.table[pageNo] = fr
	if pageNo >= p.maxPage {
		p.maxPage = pageNo + 1
	}
	if p.onMiss != nil {
		p.onMiss(int64(time.Since(t0)))
	}
	return fr, nil
}

// victim produces a free frame: a fresh allocation while below
// capacity, otherwise the CLOCK-selected unpinned page (flushed first
// if dirty), falling back to an over-capacity allocation when every
// frame is pinned.
func (p *Pool) victim() (*frame, error) {
	if len(p.frames) < p.cap {
		fr := &frame{data: make([]byte, p.pageSize)}
		p.frames = append(p.frames, fr)
		p.stats.Frames = int64(len(p.frames))
		return fr, nil
	}
	// CLOCK: two full sweeps — the first clears reference bits, the
	// second must then find any unpinned frame.
	for sweep := 0; sweep < 2*len(p.frames); sweep++ {
		fr := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if fr.valid {
			if fr.dirty {
				if err := p.writePage(fr.pageNo, fr.data); err != nil {
					return nil, err
				}
			}
			delete(p.table, fr.pageNo)
			fr.valid = false
			p.stats.Evictions++
		}
		return fr, nil
	}
	// Every frame pinned: over-allocate rather than deadlock.
	p.stats.OverCap++
	fr := &frame{data: make([]byte, p.pageSize)}
	p.frames = append(p.frames, fr)
	p.stats.Frames = int64(len(p.frames))
	return fr, nil
}

// readPage fills buf with pageNo's content; pages beyond EOF (or the
// short tail of the last page) read as zeros.
func (p *Pool) readPage(pageNo uint32, buf []byte) error {
	n, err := p.f.ReadAt(buf, int64(pageNo)*int64(p.pageSize))
	if err != nil && err != io.EOF {
		return fmt.Errorf("page: read page %d: %w", pageNo, err)
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

// writePage persists one page image to the heap file.
func (p *Pool) writePage(pageNo uint32, buf []byte) error {
	if _, err := p.f.WriteAt(buf, int64(pageNo)*int64(p.pageSize)); err != nil {
		return fmt.Errorf("page: write page %d: %w", pageNo, err)
	}
	p.stats.Flushes++
	return nil
}

// Read returns slot id's value and defined bit, faulting its page in
// if needed.
func (p *Pool) Read(id uint32) (int64, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, false, errClosed
	}
	pageNo, slot := p.locate(id)
	fr, err := p.frameFor(pageNo)
	if err != nil {
		return 0, false, err
	}
	v, ok := p.slotValue(fr.data, slot)
	return v, ok, nil
}

// Write installs v into slot id if the slot is defined, reporting
// ok=false otherwise. The page is marked dirty, never written through:
// durability belongs to the WAL, not the heap.
func (p *Pool) Write(id uint32, v int64) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, errClosed
	}
	pageNo, slot := p.locate(id)
	fr, err := p.frameFor(pageNo)
	if err != nil {
		return false, err
	}
	if _, ok := p.slotValue(fr.data, slot); !ok {
		return false, nil
	}
	p.setSlot(fr.data, slot, v, true)
	fr.dirty = true
	return true, nil
}

// Define sets slot id to v and marks it defined, reporting whether the
// slot was newly defined.
func (p *Pool) Define(id uint32, v int64) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, errClosed
	}
	pageNo, slot := p.locate(id)
	fr, err := p.frameFor(pageNo)
	if err != nil {
		return false, err
	}
	_, was := p.slotValue(fr.data, slot)
	p.setSlot(fr.data, slot, v, true)
	fr.dirty = true
	return !was, nil
}

// Undefine clears slot id's defined bit, reporting whether it was
// defined.
func (p *Pool) Undefine(id uint32) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, errClosed
	}
	pageNo, slot := p.locate(id)
	fr, err := p.frameFor(pageNo)
	if err != nil {
		return false, err
	}
	_, was := p.slotValue(fr.data, slot)
	if was {
		p.setSlot(fr.data, slot, 0, false)
		fr.dirty = true
	}
	return was, nil
}

// Pin faults slot id's page resident and holds it there: a pinned page
// is never selected for eviction. Pins nest (one per Pin call).
func (p *Pool) Pin(id uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	pageNo, _ := p.locate(id)
	fr, err := p.frameFor(pageNo)
	if err != nil {
		return err
	}
	if fr.pins == 0 {
		p.stats.PinnedPages++
	}
	fr.pins++
	return nil
}

// Unpin releases one Pin of slot id's page. Unpinning a page that is
// not resident or not pinned panics: the engine's pin protocol
// guarantees a pinned page stays resident, so a violation is a
// protocol bug, not a runtime condition.
func (p *Pool) Unpin(id uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pageNo, _ := p.locate(id)
	fr, ok := p.table[pageNo]
	if !ok || fr.pins <= 0 {
		panic(fmt.Sprintf("page: unpin of unpinned page %d", pageNo))
	}
	fr.pins--
	if fr.pins == 0 {
		p.stats.PinnedPages--
	}
}

// Resident reports whether slot id's page is currently in the pool
// (test hook).
func (p *Pool) Resident(id uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pageNo, _ := p.locate(id)
	_, ok := p.table[pageNo]
	return ok
}

// FlushAll writes every dirty resident page to the heap file.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	return p.flushAllLocked()
}

func (p *Pool) flushAllLocked() error {
	for _, fr := range p.frames {
		if fr.valid && fr.dirty {
			if err := p.writePage(fr.pageNo, fr.data); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// SnapshotRange reads slots [0, n) into vals/defined (both must have
// length >= n) without disturbing the pool: resident pages — including
// dirty ones — are decoded from memory, everything else is read
// straight from the heap file into a scratch buffer, never admitted.
// Callers needing a consistent snapshot must exclude writers (the
// checkpoint path runs this under the engine quiesce).
func (p *Pool) SnapshotRange(n int, vals []int64, defined []bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	pages := (n + p.perPage - 1) / p.perPage
	for pg := 0; pg < pages; pg++ {
		data := p.scratch
		if fr, ok := p.table[uint32(pg)]; ok {
			data = fr.data
		} else if err := p.readPage(uint32(pg), p.scratch); err != nil {
			return err
		}
		base := pg * p.perPage
		for s := 0; s < p.perPage && base+s < n; s++ {
			vals[base+s], defined[base+s] = p.slotValue(data, s)
		}
	}
	return nil
}

// Stats returns a counter snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.HeapPages = int64(p.maxPage)
	return st
}

// Close flushes dirty pages and closes the heap file. Further
// operations fail.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	ferr := p.flushAllLocked()
	p.closed = true
	if cerr := p.f.Close(); ferr == nil {
		ferr = cerr
	}
	return ferr
}
