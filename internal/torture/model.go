package torture

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// observe reads one key's current version out of the real stack: an
// LPN's page, a row's value, a shard's counter.
type observe func(key int64) (int64, error)

const noVersion = -1 // content that is no version at all: a torn page, a missing row

// lookup is the observe of a state already read out in one pass.
func lookup(got map[int64]int64) observe {
	return func(key int64) (int64, error) {
		if v, ok := got[key]; ok {
			return v, nil
		}
		return noVersion, nil
	}
}

// model is the executable form of the paper's §5.4 contract, over
// abstract keys and versions: what is committed, what each open
// transaction has written, which of those are prepared, and the undo
// record of every committed generation. A leg feeds it the schedule it
// drives the real stack with; after a crash (recover), at a clean end
// (verify) and under every live reader (snapshot) the model names the
// states the contract allows, and the observed state must be one of them.
type model struct {
	mu sync.Mutex // session legs judge snapshots from reader goroutines

	// rbj selects the rollback-journal contract: the journal deletion that
	// commits a transaction is durable only with the next file-system
	// metadata commit, so a crash may resurrect the hot journal and revoke
	// the most recent commit — whole, and only that one.
	rbj       bool
	revocable bool

	committed map[int64]int64            // key -> version; absent = 0
	keys      []int64                    // committed's keys in order (judge keeps it current)
	shadow    map[uint64]map[int64]int64 // tid -> its uncommitted writes
	prepared  map[uint64]bool            // 2PC phase one done: survives a crash in doubt
	undo      []map[int64]int64          // undo[g-1] = the versions generation g overwrote
}

func newModel(rbj bool) *model {
	return &model{
		rbj:       rbj,
		committed: make(map[int64]int64),
		shadow:    make(map[uint64]map[int64]int64),
		prepared:  make(map[uint64]bool),
	}
}

// load sets a key's baseline version outside any transaction.
func (m *model) load(key, version int64) { m.committed[key] = version }

// write records write(t,p). The key joins the checked set for good, so
// an aborted or discarded write that resurfaces later is still seen.
func (m *model) write(tid uint64, key, version int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shadow[tid] == nil {
		m.shadow[tid] = make(map[int64]int64)
	}
	m.shadow[tid][key] = version
	if _, ok := m.committed[key]; !ok {
		m.committed[key] = 0
	}
}

// prepare records that tid passed 2PC phase one.
func (m *model) prepare(tid uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prepared[tid] = true
}

// commit records that tid's commit point was passed.
func (m *model) commit(tid uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.apply(tid)
	m.revocable = m.rbj
}

func (m *model) apply(tid uint64) {
	old := make(map[int64]int64, len(m.shadow[tid]))
	for k, v := range m.shadow[tid] {
		old[k] = m.committed[k]
		m.committed[k] = v
	}
	m.undo = append(m.undo, old)
	delete(m.shadow, tid)
	delete(m.prepared, tid)
}

// abort records abort(t).
func (m *model) abort(tid uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.shadow, tid)
	delete(m.prepared, tid)
}

// generation is the number of commits so far: the floor of any snapshot
// opened from now on.
func (m *model) generation() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.undo)
}

// candidate is one state the contract allows: committed with over laid
// on top. adopt folds it into the model once the real stack chose it.
type candidate struct {
	name  string
	over  map[int64]int64
	adopt func()
}

// recover judges the state observed after a crash. The contract allows
// exactly: the committed state; the committed state plus one in-doubt
// transaction applied whole (indoubt — the tid whose commit command the
// cut interrupted, 0 for none — or any prepared tid); and, under the
// rollback-journal contract only, the state before the one revocable
// commit. The model adopts the candidate that matches and reports its
// name; every other open transaction died with the power.
func (m *model) recover(indoubt uint64, obs observe) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cands := []candidate{{name: "committed"}}
	for _, tid := range sortedKeys(m.shadow) {
		if tid == indoubt || m.prepared[tid] {
			cands = append(cands, candidate{"indoubt", m.shadow[tid], func() { m.apply(tid) }})
		}
	}
	if m.revocable {
		last := len(m.undo) - 1
		cands = append(cands, candidate{"revoked", m.undo[last], func() {
			maps.Copy(m.committed, m.undo[last])
			m.undo = m.undo[:last]
		}})
	}
	c, err := m.judge("recovered state", obs, cands)
	if err != nil {
		return "", err
	}
	if c.adopt != nil {
		c.adopt()
	}
	// Playback of a resurrected journal ends in an fsync, so whatever
	// recovery landed on is durable: nothing stays revocable.
	m.revocable = false
	clear(m.shadow)
	clear(m.prepared)
	return c.name, nil
}

// verify judges a state observed with nothing in flight and no crash
// since the last commit: it must be exactly the committed one.
func (m *model) verify(obs observe) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.judge("final state", obs, []candidate{{name: "committed"}})
	return err
}

// snapshot judges what a live reader saw through a snapshot it opened
// when the model stood at generation floor: one whole generation, no
// older than floor and no newer than a commit still in flight (which may
// reach the device before the writer records it).
func (m *model) snapshot(floor int, obs observe) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cands []candidate
	for _, tid := range sortedKeys(m.shadow) {
		cands = append(cands, candidate{name: fmt.Sprintf("gen %d (tid %d in flight)", len(m.undo)+1, tid), over: m.shadow[tid]})
	}
	over := map[int64]int64{}
	for g := len(m.undo); g >= floor; g-- {
		cands = append(cands, candidate{name: fmt.Sprintf("gen %d", g), over: maps.Clone(over)})
		if g > 0 {
			maps.Copy(over, m.undo[g-1])
		}
	}
	_, err := m.judge(fmt.Sprintf("snapshot opened at gen %d", floor), obs, cands)
	return err
}

// judge observes every key the model has ever seen and returns the
// first candidate the observation equals. A violation names the
// candidate set and, per candidate, only the first key that rules it
// out — never the whole observed state.
func (m *model) judge(what string, obs observe, cands []candidate) (*candidate, error) {
	if len(m.keys) != len(m.committed) {
		m.keys = sortedKeys(m.committed)
	}
	got := make(map[int64]int64, len(m.keys))
	for _, k := range m.keys {
		v, err := obs(k)
		if err != nil {
			return nil, fmt.Errorf("observe key %d: %w", k, err)
		}
		got[k] = v
	}
	var why []string
next:
	for i := range cands {
		c := &cands[i]
		for _, k := range m.keys {
			want, ok := c.over[k]
			if !ok {
				want = m.committed[k]
			}
			if got[k] != want {
				why = append(why, fmt.Sprintf("%s wants key %d = %d, found %d", c.name, k, want, got[k]))
				continue next
			}
		}
		return c, nil
	}
	return nil, fmt.Errorf("%s matches none of the %d states the contract allows: %s", what, len(cands), strings.Join(why, "; "))
}

// sortedKeys returns m's keys in ascending order: every walk over a map
// that reaches the stack or an error message goes through it, so the same
// seed gives the same run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
