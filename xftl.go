package xftl

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Mode is one of the paper's three system configurations (§6.1).
type Mode int

const (
	// ModeRollback runs SQLite in rollback-journal mode on ext4
	// (ordered journaling) over the baseline FTL — "RBJ" in the paper.
	ModeRollback Mode = iota
	// ModeWAL runs SQLite in write-ahead-log mode on ext4 (ordered
	// journaling) over the baseline FTL — "WAL".
	ModeWAL
	// ModeXFTL runs SQLite with journaling off and the file system in
	// X-FTL passthrough mode over the transactional FTL — "X-FTL".
	ModeXFTL
)

func (m Mode) String() string {
	switch m {
	case ModeRollback:
		return "RBJ"
	case ModeWAL:
		return "WAL"
	case ModeXFTL:
		return "X-FTL"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Re-exported building blocks for users who want to assemble their own
// stack or instrument individual layers.
type (
	// Profile describes a storage device model.
	Profile = storage.Profile
	// DeviceOptions configures the device under a stack: fault model,
	// FTL and X-FTL configuration (capacity included) and NCQ.
	DeviceOptions = storage.Options
	// DB is the embedded SQL database engine.
	DB = sqlite.DB
	// Rows is a materialized query result.
	Rows = sqlite.Rows
)

// OpenSSD returns the profile of the paper's prototype board.
func OpenSSD() Profile { return storage.OpenSSD() }

// Stack is a fully assembled system: device, file system, counters and
// clock, configured for one of the paper's modes.
type Stack struct {
	Mode   Mode
	Clock  *simclock.Clock
	Device *storage.Device
	FS     *simfs.FS
	Host   *metrics.HostCounters

	// Gauges is the metrics registry the stack's layers publish into
	// (DESIGN.md §11; each family's HELP line says what it counts):
	// flash, FTL, X-FTL and NCQ counters from the device, host I/O from
	// the file system, all labelled with the stack's shard id ("0"
	// outside a fleet, whose members share one registry). Safe to scrape
	// while commands run.
	Gauges *metrics.Registry

	dbConfig sqlite.Config
	closed   atomic.Bool
}

// Close shuts the stack down gracefully: every in-flight NCQ command is
// drained to completion (advancing virtual time to the last retire), so
// no queued work is abandoned. The stack owns no goroutines — all
// simulation is synchronous in virtual time — so Close leaves nothing
// running. A second Close is a no-op. Sessions and databases opened on
// the stack must be closed by their owners first; Close does not reach
// into them.
func (s *Stack) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Queue.Close drains and then rejects stragglers: once a fleet
	// member is closed, a misrouted submission fails fast with
	// ncq.ErrQueueClosed instead of executing against (and advancing the
	// virtual clock of) a half-torn-down device — and because each
	// member's queue has its own mutex and clock, closing one member can
	// never block another member's drain.
	s.Device.Queue().Close()
	return nil
}

// Closed reports whether Close has run.
func (s *Stack) Closed() bool { return s.closed.Load() }

// SetTracer installs (or removes, with nil) a cross-layer event tracer
// on every layer of the stack. Call Attach on the tracer first so
// events carry the stack's clock and a generation label.
func (s *Stack) SetTracer(t *trace.Tracer) {
	s.Device.SetTracer(t)
	s.FS.SetTracer(t)
}

// StackOptions tunes the database a stack opens: its page cache and WAL
// checkpoint. Every device setting, capacity included, travels as
// DeviceOptions.
type StackOptions struct {
	// CacheSize overrides the SQLite page-cache size (pages).
	CacheSize int
	// CheckpointPages overrides the WAL auto-checkpoint threshold.
	CheckpointPages int64
	// FTLLogicalPages is the device capacity as NewStackOptions takes
	// it; NewStackDevice refuses it. It stays only while the benchmark
	// module's synthetic workload sets it, and goes with NewStackOptions.
	FTLLogicalPages int64
}

var errStackCapacity = errors.New("xftl: set the capacity as DeviceOptions.FTL.LogicalPages, not StackOptions.FTLLogicalPages")

// NewStackDevice builds the device and file system for a mode on the
// given hardware profile. Device options (fault model, FTL and X-FTL
// configuration, capacity, NCQ) pass straight through; opts tune the
// database.
func NewStackDevice(prof Profile, mode Mode, devOpts DeviceOptions, opts StackOptions) (*Stack, error) {
	if opts.FTLLogicalPages != 0 {
		return nil, errStackCapacity
	}
	return newStack(prof, mode, devOpts, opts, metrics.NewRegistry(), 0)
}

// NewStackOptions is NewStackDevice with the capacity given as
// opts.FTLLogicalPages and every other device setting at its default.
// Only the benchmark module's synthetic workload calls it.
func NewStackOptions(prof Profile, mode Mode, opts StackOptions) (*Stack, error) {
	var devOpts DeviceOptions
	devOpts.FTL.LogicalPages, opts.FTLLogicalPages = opts.FTLLogicalPages, 0
	return NewStackDevice(prof, mode, devOpts, opts)
}

// newStack builds a stack publishing into reg as the given shard.
func newStack(prof Profile, mode Mode, devOpts DeviceOptions, opts StackOptions, reg *metrics.Registry, shard int) (*Stack, error) {
	clock := simclock.New()
	devOpts.Transactional = mode == ModeXFTL
	dev, err := storage.New(prof, clock, devOpts)
	if err != nil {
		return nil, err
	}
	host := &metrics.HostCounters{}
	fsMode := simfs.Ordered
	if mode == ModeXFTL {
		fsMode = simfs.OffXFTL
	}
	fsys, err := simfs.New(dev, fsMode, host)
	if err != nil {
		return nil, err
	}
	jm := pager.Rollback
	switch mode {
	case ModeWAL:
		jm = pager.WAL
	case ModeXFTL:
		jm = pager.Off
	}
	sh := strconv.Itoa(shard)
	dev.Register(reg, sh)
	for class, c := range map[string]*atomic.Int64{"db": &host.DBWrites, "journal": &host.JournalWrites, "fsmeta": &host.FSMetaWrites} {
		reg.Counter("xftl_host_page_writes_total", "Host page writes by target: database file, journal or WAL, file-system metadata.",
			c.Load, "shard", sh, "class", class)
	}
	reg.Counter("xftl_host_page_reads_total", "Host page reads.", host.Reads.Load, "shard", sh)
	reg.Counter("xftl_host_fsyncs_total", "fsync and fsync-like barrier calls.", host.Fsyncs.Load, "shard", sh)
	return &Stack{
		Mode:   mode,
		Clock:  clock,
		Device: dev,
		FS:     fsys,
		Host:   host,
		Gauges: reg,
		dbConfig: sqlite.Config{
			Mode:            jm,
			CacheSize:       opts.CacheSize,
			CheckpointPages: opts.CheckpointPages,
		},
	}, nil
}

// AttachTracer gives the stack its own tracer generation: the tracer is
// bound to this stack's clock under the given label and installed on
// every layer, the serving tier's request spans included. One tracer
// cannot serve two concurrently running stacks (the generation is
// stamped at record time from tracer-global state), so each fleet
// member gets its own.
func (s *Stack) AttachTracer(t *trace.Tracer, label string) {
	t.Attach(s.Clock, label)
	s.SetTracer(t)
}

// NewFleet builds n (≥ 1) independent X-FTL stacks — the shard
// substrate. Every member shares one hardware profile and device options
// but owns its device, clock and file system, so members simulate in
// parallel without serializing on any shared state. Construction is
// cheap: pure struct wiring, no goroutines, no preallocation beyond each
// device's page store.
func NewFleet(n int, prof Profile, devOpts DeviceOptions) ([]*Stack, error) {
	if devOpts.Fault != nil && n > 1 {
		return nil, fmt.Errorf("xftl: one fault model cannot serve %d shards: members run in parallel and would share its random state", n)
	}
	stacks := make([]*Stack, n)
	reg := metrics.NewRegistry() // one exposition, members told apart by label
	for i := range stacks {
		st, err := newStack(prof, ModeXFTL, devOpts, StackOptions{}, reg, i)
		if err != nil {
			// Unwind the members already built so no queue outlives the
			// failed constructor.
			for _, prev := range stacks[:i] {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("xftl: fleet shard %d: %w", i, err)
		}
		stacks[i] = st
	}
	return stacks, nil
}

// OpenDB opens (or creates) a database on the stack's file system with
// the journal mode the stack was built for.
func (s *Stack) OpenDB(name string) (*sqlite.DB, error) {
	return sqlite.Open(s.FS, name, s.dbConfig)
}

// Elapsed reports total simulated time since the stack was created.
func (s *Stack) Elapsed() time.Duration { return s.Clock.Now() }

// PowerCut simulates a power failure of the whole stack.
func (s *Stack) PowerCut() { s.FS.PowerCut() }

// Remount recovers the stack after a power cut (device firmware
// recovery plus file-system journal replay). Databases must be
// re-opened afterwards, which runs SQLite-level recovery.
func (s *Stack) Remount() error { return s.FS.Remount() }

// FlashStats returns the device-internal counters.
func (s *Stack) FlashStats() *metrics.FlashCounters { return s.Device.FlashStats() }

// CommitAtomic commits open transactions on several databases (on the
// same X-FTL stack) as one atomic unit — the multi-file transaction of
// the paper's §4.3, which SQLite's rollback mode needs a master journal
// to approximate and X-FTL provides through one shared transaction id.
func CommitAtomic(dbs ...*sqlite.DB) error { return sqlite.CommitAtomic(dbs...) }
