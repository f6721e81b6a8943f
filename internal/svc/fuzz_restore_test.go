package svc

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// baseSnapshot builds a deterministic snapshot covering every job state:
// a few submitted jobs, an admission round (some run, some stay queued),
// one completion, one cancellation, and one late submit that is still
// queued when the snapshot is taken. The corruption fuzzer mutates these
// bytes, so the richer the state they carry, the more Restore paths a
// mutation can reach.
func baseSnapshot(t *testing.T) []byte {
	t.Helper()
	db, node, err := fuzzProfiles()
	if err != nil {
		t.Fatal(err)
	}
	f := newFuzzCore(t, db, node)
	defer f.c.Close()
	for _, b := range []byte{0, 8, 16, 48, 1, 112, 1, 2, 7, 1, 20} {
		f.apply(t, b)
	}
	var buf bytes.Buffer
	if err := f.c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptSnapshot applies one structured mutation to snapshot bytes.
// Every branch is a pure function of (data, mode, pos, bit): map keys
// are sorted before indexing and json.Marshal emits sorted keys, so a
// reproducer corpus entry replays the identical corruption.
func corruptSnapshot(data []byte, mode, pos int, bit uint8) []byte {
	if len(data) == 0 {
		return data
	}
	if pos < 0 {
		pos = -pos
	}
	if mode < 0 {
		// Rewrite one value of one job's prototype reservation. It sits
		// outside the switch so modes 0-3 keep their numbers: the
		// committed corpus replays by mode value.
		return rewriteReservation(data, -(mode + 1), pos, bit)
	}
	switch mode % 4 {
	case 0: // truncate mid-stream
		return data[:pos%len(data)]
	case 1: // flip one bit
		out := bytes.Clone(data)
		out[pos%len(out)] ^= 1 << (bit % 8)
		return out
	case 2: // drop one top-level field
		var m map[string]json.RawMessage
		if json.Unmarshal(data, &m) != nil || len(m) == 0 {
			return data
		}
		delete(m, sortedKeys(m)[pos%len(m)])
		out, err := json.Marshal(m)
		if err != nil {
			return data
		}
		return out
	default: // drop one field from one job record
		return editJobRecord(data, pos, func(rec map[string]json.RawMessage) bool {
			if len(rec) == 0 {
				return false
			}
			delete(rec, sortedKeys(rec)[int(bit)%len(rec)])
			return true
		})
	}
}

// editJobRecord applies edit to job record pos (modulo the job count)
// and re-encodes the document; data comes back untouched when it does
// not parse that far or edit declines.
func editJobRecord(data []byte, pos int, edit func(rec map[string]json.RawMessage) bool) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(data, &m) != nil {
		return data
	}
	var jobs []map[string]json.RawMessage
	if json.Unmarshal(m["jobs"], &jobs) != nil || len(jobs) == 0 {
		return data
	}
	if !edit(jobs[pos%len(jobs)]) {
		return data
	}
	enc, err := json.Marshal(jobs)
	if err != nil {
		return data
	}
	m["jobs"] = enc
	out, err := json.Marshal(m)
	if err != nil {
		return data
	}
	return out
}

// rewriteReservation sets one field of job pos's "res0" — the values
// Restore hands to the kernel, which panics on a core count it cannot
// index. Booleans flip; numbers become v%256-64, so the fuzzer reaches
// negative, in-range and oversize values alike.
func rewriteReservation(data []byte, v, pos int, bit uint8) []byte {
	return editJobRecord(data, pos, func(rec map[string]json.RawMessage) bool {
		var res0 map[string]json.RawMessage
		if json.Unmarshal(rec["res0"], &res0) != nil || len(res0) == 0 {
			return false
		}
		key := sortedKeys(res0)[int(bit)%len(res0)]
		switch string(res0[key]) {
		case "true":
			res0[key] = json.RawMessage("false")
		case "false":
			res0[key] = json.RawMessage("true")
		default:
			res0[key] = json.RawMessage(strconv.Itoa(v%256 - 64))
		}
		enc, err := json.Marshal(res0)
		rec["res0"] = enc
		return err == nil
	})
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FuzzRestoreCorrupt feeds Restore structurally corrupted snapshots —
// truncations, single bit flips, dropped JSON fields, and rewritten
// reservation values — and holds it
// to its error contract: no panic ever, a descriptive "svc:"-prefixed
// error with a nil core on rejection, and on acceptance a core coherent
// enough to dump and re-snapshot. The committed corpus pins regressions
// this fuzzer has caught: a job record whose state byte was flipped out
// of the JobState range used to index the per-state counts array out of
// bounds instead of being rejected (the range check in Restore is the
// fix).
func FuzzRestoreCorrupt(f *testing.F) {
	f.Add(0, 0, uint8(0))    // empty truncation
	f.Add(0, 200, uint8(0))  // mid-object truncation
	f.Add(1, 12, uint8(1))   // bit flip near the version field
	f.Add(2, 0, uint8(0))    // drop a top-level field
	f.Add(3, 0, uint8(4))    // drop a field from the first job record
	f.Add(1, 150, uint8(0))  // bit flip inside a job record
	f.Add(3, 2, uint8(9))    // drop a field from a later record
	f.Add(-157, 2, uint8(1)) // a running job's res0 reserves 92 cores a node
	f.Add(-1, 2, uint8(2))   // ... and is exclusive
	f.Fuzz(func(t *testing.T, mode, pos int, bit uint8) {
		db, _, err := fuzzProfiles()
		if err != nil {
			t.Fatal(err)
		}
		data := corruptSnapshot(baseSnapshot(t), mode, pos, bit)
		restored, err := Restore(bytes.NewReader(data), db)
		if err != nil {
			// Rejection must be total: a descriptive error and no core.
			// Restore builds into a private core and returns nil on any
			// failure, so a caller can never observe half-applied state.
			if restored != nil {
				t.Fatalf("Restore returned an error and a non-nil core: %v", err)
			}
			if !strings.HasPrefix(err.Error(), "svc: ") {
				t.Fatalf("corruption error lacks the svc: prefix: %v", err)
			}
			return
		}
		// Some corruptions are semantically invisible (a bit flip in a
		// float's mantissa, dropping an omitempty field that was already
		// zero). An accepted core must still be fully usable.
		defer restored.Close()
		_ = dumpCore(restored)
		var buf bytes.Buffer
		if err := restored.Snapshot(&buf); err != nil {
			t.Fatalf("re-snapshot of an accepted restore failed: %v", err)
		}
	})
}
