package offload

import (
	"fmt"

	"repro/internal/statecodec"
)

// Default bounds for the per-session v4 replay cache. A well-behaved
// client only ever replays its single last unacked epoch, so the
// entry cap exists purely to bound a hostile or buggy client; the
// byte cap additionally bounds what a session contributes to a
// handoff blob.
const (
	DefaultReplayEntries = 16
	DefaultReplayBytes   = 16 * 1024
)

// replayCache is the bounded per-session store of recently answered
// epoch results, keyed by the client's v4 sequence number. It replaces
// the original single-slot cache: a session that survives a node
// failover can be asked to replay any epoch the client never saw
// acknowledged, and an unbounded cache would let one session grow
// without limit across a long walk. Oldest entries are evicted first;
// evictions are surfaced so the server can count them
// (uniloc_replay_evictions_total). Owned by the serving goroutine, like
// the rest of the session's protocol state.
type replayCache struct {
	entries    []ReplayEntry // ascending arrival order: oldest first
	bytes      int
	maxEntries int // <= 0: DefaultReplayEntries
	maxBytes   int // <= 0: DefaultReplayBytes
}

func (c *replayCache) caps() (int, int) {
	me, mb := c.maxEntries, c.maxBytes
	if me <= 0 {
		me = DefaultReplayEntries
	}
	if mb <= 0 {
		mb = DefaultReplayBytes
	}
	return me, mb
}

// get returns the cached result payload for seq, or nil.
func (c *replayCache) get(seq uint32) []byte {
	for i := len(c.entries) - 1; i >= 0; i-- {
		if c.entries[i].Seq == seq {
			return c.entries[i].Payload
		}
	}
	return nil
}

// put records one answered epoch, replacing any previous entry for the
// same seq, and returns how many entries were evicted to stay within
// the caps. A payload larger than the byte cap on its own still keeps
// exactly one entry — the cache must always be able to answer the most
// recent epoch, or reconnect replay breaks entirely.
func (c *replayCache) put(seq uint32, payload []byte) int {
	for i := range c.entries {
		if c.entries[i].Seq == seq {
			c.bytes += len(payload) - len(c.entries[i].Payload)
			c.entries[i].Payload = payload
			return c.trim()
		}
	}
	c.entries = append(c.entries, ReplayEntry{Seq: seq, Payload: payload})
	c.bytes += len(payload)
	return c.trim()
}

// trim evicts oldest-first until the cache fits its caps, always
// retaining at least the newest entry.
func (c *replayCache) trim() int {
	maxEntries, maxBytes := c.caps()
	evicted := 0
	for len(c.entries) > 1 && (len(c.entries) > maxEntries || c.bytes > maxBytes) {
		c.bytes -= len(c.entries[0].Payload)
		c.entries[0] = ReplayEntry{}
		c.entries = c.entries[1:]
		evicted++
	}
	return evicted
}

// sessionStateVersion is the handoff blob's format version. Decoders
// reject anything else: session states cross nodes, and mixed-build
// clusters must fail loudly, not misread bits.
const sessionStateVersion byte = 1

// SessionState is the complete serializable state of one offload
// session — everything a different node needs to continue the walk at
// the exact epoch the origin last served: identity, negotiated
// protocol, the bounded replay cache (so already-stepped epochs are
// re-answered, never re-stepped), the map-store versions the state was
// taken against, and the framework snapshot (schemes, filters, RNG
// stream positions; see core.Framework.Snapshot).
type SessionState struct {
	ClientID string
	Proto    byte
	Seq      uint32 // newest answered epoch sequence number (0: none)
	Replay   []ReplayEntry
	MapVers  map[byte]uint64 // map-store version per map ID at export
	FW       []byte          // core.Framework snapshot blob
}

// ReplayEntry is one answered epoch, in a session's replay cache and
// in an exported SessionState.
type ReplayEntry struct {
	Seq     uint32
	Payload []byte
}

// EncodeSessionState packs a session state into its versioned wire
// form, in one buffer of exactly the encoded size.
func EncodeSessionState(st *SessionState) []byte {
	dst := make([]byte, 0, st.headerLen()+4+len(st.FW))
	return statecodec.AppendBytes(st.appendHeader(dst), st.FW)
}

// headerLen is the encoded size of everything before the FW field.
func (st *SessionState) headerLen() int {
	n := 1 + 4 + len(st.ClientID) + 1 + 4 + 4 + 4 + 9*len(st.MapVers)
	for _, e := range st.Replay {
		n += 4 + 4 + len(e.Payload)
	}
	return n
}

// appendHeader appends the encoding of every field but FW, which the
// caller appends as a length-prefixed byte field.
func (st *SessionState) appendHeader(dst []byte) []byte {
	dst = append(dst, sessionStateVersion)
	dst = statecodec.AppendString(dst, st.ClientID)
	dst = statecodec.AppendU8(dst, st.Proto)
	dst = statecodec.AppendU32(dst, st.Seq)
	dst = statecodec.AppendU32(dst, uint32(len(st.Replay)))
	for _, e := range st.Replay {
		dst = statecodec.AppendU32(dst, e.Seq)
		dst = statecodec.AppendBytes(dst, e.Payload)
	}
	dst = statecodec.AppendU32(dst, uint32(len(st.MapVers)))
	// Map IDs are single bytes: walk the space for deterministic order.
	for id := 0; id < 256; id++ {
		v, ok := st.MapVers[byte(id)]
		if !ok {
			continue
		}
		dst = statecodec.AppendU8(dst, byte(id))
		dst = statecodec.AppendU64(dst, v)
	}
	return dst
}

// DecodeSessionState unpacks a session state blob.
func DecodeSessionState(b []byte) (*SessionState, error) {
	r := statecodec.NewReader(b)
	if v := r.U8(); r.Err() != nil || v != sessionStateVersion {
		return nil, fmt.Errorf("offload: unsupported session state version")
	}
	st := &SessionState{
		ClientID: r.String(),
		Proto:    r.U8(),
		Seq:      r.U32(),
	}
	nReplay := int(r.U32())
	if r.Err() != nil {
		return nil, fmt.Errorf("offload: truncated session state: %w", r.Err())
	}
	st.Replay = make([]ReplayEntry, 0, nReplay)
	for i := 0; i < nReplay; i++ {
		st.Replay = append(st.Replay, ReplayEntry{Seq: r.U32(), Payload: r.Bytes()})
	}
	nVers := int(r.U32())
	if r.Err() != nil {
		return nil, fmt.Errorf("offload: truncated session state: %w", r.Err())
	}
	st.MapVers = make(map[byte]uint64, nVers)
	for i := 0; i < nVers; i++ {
		st.MapVers[r.U8()] = r.U64()
	}
	st.FW = r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("offload: truncated session state: %w", err)
	}
	return st, nil
}
