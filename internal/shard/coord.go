package shard

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/simfs"
)

// coordFile is the coordinator log's name on shard 0's file system.
const coordFile = "2pc-coord.log"

// Record layout (one page per record, little-endian):
//
//	offset  size  field
//	0       4     magic "XCRD"
//	4       1     version (1)
//	5       1     type (1 = commit decision)
//	6       2     participant count
//	8       8     global transaction id
//	16      12×n  participants: shard u32, device tid u64
//
// A commit record's durability — the fsync of the page append, which
// rides shard 0's own X-FTL transaction — is the global commit point of
// a cross-shard transaction. Recovery is presumed abort: an in-doubt
// participant (shard, tid) is committed iff some record names it;
// everything else aborts. Abort decisions are never logged.
const (
	coordMagic   = 0x44524358 // "XCRD"
	coordVersion = 1
	recCommit    = 1
)

// participantKey identifies one prepared device transaction fleet-wide.
type participantKey struct {
	shard int
	tid   uint64
}

// coordLog appends and replays commit decisions on shard 0's file
// system. Handles are opened per operation: a remount invalidates open
// files, and appends are rare (one per cross-shard commit).
type coordLog struct {
	mu sync.Mutex
	fs *simfs.FS
}

func newCoordLog(fs *simfs.FS) *coordLog { return &coordLog{fs: fs} }

func (c *coordLog) open() (*simfs.File, error) {
	if c.fs.Exists(coordFile) {
		return c.fs.Open(coordFile)
	}
	return c.fs.Create(coordFile, simfs.RoleOther)
}

// append durably logs the commit decision for gtid over the given
// participants. Returning nil means the decision is the fleet's truth:
// every participant must eventually commit.
func (c *coordLog) append(gtid uint64, parts []participantKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.open()
	if err != nil {
		return err
	}
	defer f.Close()
	page := make([]byte, c.fs.PageSize())
	if err := encodeCoordRecord(page, gtid, parts); err != nil {
		return err
	}
	if err := f.WritePage(f.Pages(), page); err != nil {
		return err
	}
	return f.Fsync()
}

// encodeCoordRecord renders the commit record of gtid over parts into
// page, which must be zero.
func encodeCoordRecord(page []byte, gtid uint64, parts []participantKey) error {
	if 16+12*len(parts) > len(page) {
		return fmt.Errorf("shard: %d participants overflow one coordinator record page", len(parts))
	}
	binary.LittleEndian.PutUint32(page[0:], coordMagic)
	page[4] = coordVersion
	page[5] = recCommit
	binary.LittleEndian.PutUint16(page[6:], uint16(len(parts)))
	binary.LittleEndian.PutUint64(page[8:], gtid)
	for i, p := range parts {
		o := 16 + 12*i
		binary.LittleEndian.PutUint32(page[o:], uint32(p.shard))
		binary.LittleEndian.PutUint64(page[o+4:], p.tid)
	}
	return nil
}

// decodeCoordRecord reads one log page as the commit record append
// wrote. It reports false for any other page: no magic or another
// version (the unwritten tail after a torn append), another record type,
// a participant count that overruns the page, or bytes set past the
// participants.
func decodeCoordRecord(page []byte) (gtid uint64, parts []participantKey, ok bool) {
	if len(page) < 16 || binary.LittleEndian.Uint32(page[0:]) != coordMagic ||
		page[4] != coordVersion || page[5] != recCommit {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint16(page[6:]))
	end := 16 + 12*n
	if end > len(page) || slices.ContainsFunc(page[end:], func(b byte) bool { return b != 0 }) {
		return 0, nil, false
	}
	parts = make([]participantKey, n)
	for j := range parts {
		o := 16 + 12*j
		parts[j] = participantKey{
			shard: int(binary.LittleEndian.Uint32(page[o:])),
			tid:   binary.LittleEndian.Uint64(page[o+4:]),
		}
	}
	return binary.LittleEndian.Uint64(page[8:]), parts, true
}

// replay scans the log and returns the set of committed participants
// plus the highest gtid seen (0 if none). The first page that is not a
// record as append wrote it — the unwritten tail after a torn append, or
// a page damaged since — ends the scan: records are appended strictly in
// order, each made durable before the next, and a record that cannot be
// read whole must not commit part of its participants.
func (c *coordLog) replay() (map[participantKey]bool, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	decided := make(map[participantKey]bool)
	var maxGtid uint64
	if !c.fs.Exists(coordFile) {
		return decided, 0, nil
	}
	f, err := c.fs.Open(coordFile)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	page := make([]byte, c.fs.PageSize())
	for i := int64(0); i < f.Pages(); i++ {
		if err := f.ReadPage(i, page); err != nil {
			return nil, 0, err
		}
		gtid, parts, ok := decodeCoordRecord(page)
		if !ok {
			break
		}
		maxGtid = max(maxGtid, gtid)
		for _, p := range parts {
			decided[p] = true
		}
	}
	return decided, maxGtid, nil
}
