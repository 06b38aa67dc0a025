package durable

import (
	"fmt"
	"strconv"
	"strings"
)

// CrashEnv is the environment variable the smartcrawl binary reads a
// crash-injection spec from (see ParseCrashPoint). It exists so the
// crashtest harness can SIGKILL the process at an exact, deterministic
// point in the durability path — including halfway through a journal
// append — without any test code in the production binary beyond this
// hook.
const CrashEnv = "SMARTCRAWL_CRASH_AT"

// crashPoint is a parsed crash-injection spec.
type crashPoint struct {
	kind  string // record kind, or "compact"
	iface int    // interface index the kind must be tagged with; -1 = any
	n     int    // 1-based occurrence of that kind to crash at
	torn  int    // bytes of the record to write before dying; -1 = all
}

// ParseCrashPoint parses a crash-injection spec:
//
//	step:3            die (SIGKILL self) right after the 3rd step record is appended
//	step:3:torn:17    write only the first 17 bytes of the 3rd step record, then die
//	round:2           die after the 2nd round-intent record
//	round:2:torn:5    tear the 2nd round record after 5 bytes
//	step@1:2          die after the 2nd step record tagged interface 1 of a
//	                  federated crawl (counts only records of that interface)
//	compact:1         die after the 1st compaction renamed its snapshot,
//	                  before the journal is reset — the nastiest window
//
// The first component may be any journal record kind or "compact",
// optionally suffixed @iface to count only records of one interface of a
// federated crawl. Compaction is global, so "compact" rejects an @iface
// tag. An empty spec disables injection.
func ParseCrashPoint(spec string) (crashPoint, error) {
	if spec == "" {
		return crashPoint{iface: -1, torn: -1}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 2 && len(parts) != 4 {
		return crashPoint{}, fmt.Errorf("durable: crash spec %q: want kind:n or kind:n:torn:bytes", spec)
	}
	cp := crashPoint{kind: parts[0], iface: -1, torn: -1}
	if at := strings.IndexByte(cp.kind, '@'); at >= 0 {
		idx, err := strconv.Atoi(cp.kind[at+1:])
		if err != nil || idx < 0 {
			return crashPoint{}, fmt.Errorf("durable: crash spec %q: bad interface index %q", spec, cp.kind[at+1:])
		}
		cp.kind, cp.iface = cp.kind[:at], idx
	}
	switch cp.kind {
	case KindBegin, KindRound, KindStep, KindRequeue, KindForfeit, KindBudgetStop:
	case "compact":
		if cp.iface >= 0 {
			return crashPoint{}, fmt.Errorf("durable: crash spec %q: compaction is global, not per-interface", spec)
		}
	default:
		return crashPoint{}, fmt.Errorf("durable: crash spec %q: unknown kind %q", spec, cp.kind)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return crashPoint{}, fmt.Errorf("durable: crash spec %q: bad occurrence %q", spec, parts[1])
	}
	cp.n = n
	if len(parts) == 4 {
		if parts[2] != "torn" {
			return crashPoint{}, fmt.Errorf("durable: crash spec %q: want kind:n:torn:bytes", spec)
		}
		b, err := strconv.Atoi(parts[3])
		if err != nil || b < 0 {
			return crashPoint{}, fmt.Errorf("durable: crash spec %q: bad torn byte count %q", spec, parts[3])
		}
		cp.torn = b
	}
	return cp, nil
}

// active reports whether this spec fires for the count-th record of kind.
// iface is the record's interface tag; count must be the per-interface
// occurrence count when the spec is interface-tagged (the sink keys its
// counters to match — see Sink.append) and the global count otherwise.
func (cp crashPoint) active(kind string, iface, count int) bool {
	return cp.kind == kind && (cp.iface < 0 || cp.iface == iface) && cp.n == count
}
