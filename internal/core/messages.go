// Package core implements VMAT — verifiable minimum with audit trail — the
// secure in-network aggregation protocol with malicious-node revocation of
// Chen and Yu (ICDCS 2011).
//
// An Engine executes one query: timestamp-based tree formation (Section
// IV-A), slotted MIN aggregation with audit trails (IV-B), confirmation
// with SOF veto flooding (IV-C), and — when the execution detects
// interference — veto- or junk-triggered pinpointing built from keyed
// predicate tests (Section VI), ending with the revocation of at least one
// key held by a malicious sensor (Theorems 6 and 7).
//
// The package aggregates a vector of independent MIN instances in one
// pass; a plain MIN query is a vector of length one, and COUNT/SUM/AVERAGE
// queries become vectors of exponential synopses (Section VIII, package
// synopsis), which is how the paper reaches its 2.4 KB-per-query
// communication figure.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// Wire sizes, in bytes. A record is 24 bytes including its MAC, matching
// the per-synopsis size the paper assumes in Section IX; envelopes add an
// edge-key index and an 8-byte edge MAC.
const (
	recordWireSize   = 24
	envelopeOverhead = 4 + crypto.MACSize
	treeFormWireSize = 4
	vetoWireSize     = 24
	replyWireSize    = crypto.MACSize
)

// Record is one sensor's contribution to one MIN instance: the paper's
// <id, v, MAC_id(v||nonce)> message of Section IV-B. Origin's MAC is
// generated with its sensor key and is verifiable only by the base
// station.
type Record struct {
	Origin   topology.NodeID
	Instance int
	Value    float64
	MAC      crypto.MAC
}

// NewRecord builds and authenticates origin's record for one instance.
func NewRecord(origin topology.NodeID, instance int, value float64, sensorKey crypto.Key, nonce []byte) Record {
	return Record{
		Origin:   origin,
		Instance: instance,
		Value:    value,
		MAC:      recordMAC(sensorKey, origin, instance, value, nonce),
	}
}

func recordMAC(key crypto.Key, origin topology.NodeID, instance int, value float64, nonce []byte) crypto.MAC {
	return crypto.ComputeMAC(key,
		[]byte("agg-record"),
		crypto.Uint64(uint64(origin)),
		crypto.Uint64(uint64(instance)),
		crypto.Float64(value),
		nonce,
	)
}

// VerifyWith reports whether the record's MAC is valid under the given
// sensor key and query nonce. Only the base station can perform this
// check.
func (r Record) VerifyWith(sensorKey crypto.Key, nonce []byte) bool {
	return r.MAC == recordMAC(sensorKey, r.Origin, r.Instance, r.Value, nonce)
}

// recordEncodedLen is the length of a Record's encoding.
const recordEncodedLen = 24 + crypto.MACSize

// Encode returns a stable byte encoding of the record.
func (r Record) Encode() []byte {
	return r.appendEncoding(make([]byte, 0, recordEncodedLen))
}

// appendEncoding appends the Encode bytes to out.
func (r Record) appendEncoding(out []byte) []byte {
	out = binary.BigEndian.AppendUint64(out, uint64(r.Origin))
	out = binary.BigEndian.AppendUint64(out, uint64(r.Instance))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(r.Value))
	return append(out, r.MAC[:]...)
}

// ID returns the record's message identity, used by junk audit trails.
func (r Record) ID() crypto.Hash { return crypto.HashOf([]byte("record-id"), r.Encode()) }

// String renders the record for traces.
func (r Record) String() string {
	return fmt.Sprintf("record{origin=%d inst=%d v=%g}", r.Origin, r.Instance, r.Value)
}

// AggMsg is the partial aggregation message a sensor forwards to its
// parent: for each instance, the minimum record seen so far. Absent
// instances (value +Inf with no contributor) are carried as zero-origin
// infinite records.
type AggMsg struct {
	Records []Record
}

// WireSize charges 24 bytes per carried instance record.
func (m AggMsg) WireSize() int { return recordWireSize * len(m.Records) }

// AggMsgWireSize returns the wire size of an aggregate carrying the given
// number of instance records: 24 bytes each, so the paper's 100-synopsis
// query moves 2.4 KB per aggregation message (Section IX).
func AggMsgWireSize(instances int) int { return recordWireSize * instances }

// TreeFormMsg is the tree-formation flood message. In VMAT it carries no
// hop count — a sensor's level is the interval in which the message first
// arrives (Section IV-A).
type TreeFormMsg struct{}

// WireSize is a small constant: the message carries only its type.
func (TreeFormMsg) WireSize() int { return treeFormWireSize }

// VetoMsg is the confirmation-phase veto <id, v, level,
// MAC_id(v||level||nonce)> of Section IV-C, extended with the instance
// index the veto refers to.
type VetoMsg struct {
	Vetoer   topology.NodeID
	Instance int
	Value    float64
	Level    int
	MAC      crypto.MAC
}

// NewVeto builds and authenticates a veto.
func NewVeto(vetoer topology.NodeID, instance int, value float64, level int, sensorKey crypto.Key, nonce []byte) VetoMsg {
	return VetoMsg{
		Vetoer:   vetoer,
		Instance: instance,
		Value:    value,
		Level:    level,
		MAC:      vetoMAC(sensorKey, vetoer, instance, value, level, nonce),
	}
}

func vetoMAC(key crypto.Key, vetoer topology.NodeID, instance int, value float64, level int, nonce []byte) crypto.MAC {
	return crypto.ComputeMAC(key,
		[]byte("veto"),
		crypto.Uint64(uint64(vetoer)),
		crypto.Uint64(uint64(instance)),
		crypto.Float64(value),
		crypto.Int64(int64(level)),
		nonce,
	)
}

// VerifyWith reports whether the veto's MAC is valid under the given
// sensor key and confirmation nonce.
func (v VetoMsg) VerifyWith(sensorKey crypto.Key, nonce []byte) bool {
	return v.MAC == vetoMAC(sensorKey, v.Vetoer, v.Instance, v.Value, v.Level, nonce)
}

// Encode returns a stable byte encoding of the veto.
func (v VetoMsg) Encode() []byte {
	out := make([]byte, 0, 32+crypto.MACSize)
	out = append(out, crypto.Uint64(uint64(v.Vetoer))...)
	out = append(out, crypto.Uint64(uint64(v.Instance))...)
	out = append(out, crypto.Float64(v.Value)...)
	out = append(out, crypto.Int64(int64(v.Level))...)
	out = append(out, v.MAC[:]...)
	return out
}

// ID returns the veto's message identity, used by junk audit trails.
func (v VetoMsg) ID() crypto.Hash { return crypto.HashOf([]byte("veto-id"), v.Encode()) }

// WireSize charges the paper's 24-byte figure for a compact record.
func (VetoMsg) WireSize() int { return vetoWireSize }

// PredicateReply is the "yes" answer of a keyed predicate test:
// MAC_K(N), recognizable by every sensor via the pre-broadcast commitment
// H(MAC_K(N)).
type PredicateReply struct {
	MAC crypto.MAC
}

// WireSize is the MAC size.
func (PredicateReply) WireSize() int { return replyWireSize }

// inner is the union of payloads that travel inside edge-authenticated
// envelopes.
type inner interface {
	WireSize() int
	encodeInner() []byte
}

func (m AggMsg) encodeInner() []byte {
	out := make([]byte, 0, len("agg")+recordEncodedLen*len(m.Records))
	out = append(out, "agg"...)
	for _, r := range m.Records {
		out = r.appendEncoding(out)
	}
	return out
}

func (TreeFormMsg) encodeInner() []byte { return []byte("tree-form") }

func (v VetoMsg) encodeInner() []byte { return append([]byte("veto"), v.Encode()...) }

func (p PredicateReply) encodeInner() []byte { return append([]byte("reply"), p.MAC[:]...) }

// Envelope is an edge-authenticated wrapper: every VMAT message between
// neighbors carries an edge MAC under a pool key both endpoints hold
// (Section III). The key index is in the clear so the receiver knows which
// key to verify with; the MAC binds the payload to the (from, to) pair so
// a captured envelope cannot be replayed verbatim on another link.
type Envelope struct {
	KeyIndex int
	MAC      crypto.MAC
	Inner    inner
}

// WireSize charges the inner payload plus the envelope overhead.
func (e Envelope) WireSize() int { return e.Inner.WireSize() + envelopeOverhead }

// Seal wraps payload for the link from -> to under the given pool key.
func Seal(keyIndex int, key crypto.Key, from, to topology.NodeID, payload inner) Envelope {
	return Envelope{
		KeyIndex: keyIndex,
		MAC:      envelopeMAC(key, keyIndex, from, to, payload),
		Inner:    payload,
	}
}

func envelopeMAC(key crypto.Key, keyIndex int, from, to topology.NodeID, payload inner) crypto.MAC {
	return crypto.ComputeMAC(key,
		[]byte("envelope"),
		crypto.Uint64(uint64(keyIndex)),
		crypto.Uint64(uint64(from)),
		crypto.Uint64(uint64(to)),
		payload.encodeInner(),
	)
}

// Open verifies the envelope as received on the link from -> to and
// returns the payload. It returns false when the MAC does not verify.
func (e Envelope) Open(key crypto.Key, from, to topology.NodeID) (inner, bool) {
	if e.Inner == nil {
		return nil, false
	}
	if e.MAC != envelopeMAC(key, e.KeyIndex, from, to, e.Inner) {
		return nil, false
	}
	return e.Inner, true
}
