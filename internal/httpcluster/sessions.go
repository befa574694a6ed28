package httpcluster

import (
	"math"
	"sync"
)

// Sticky sessions and weights for the wall-clock balancer, mirroring
// internal/lb's mod_jk features. Sessions are identified by an opaque
// string (typically a cookie value); weights are mod_jk's lbfactor.
// Both sit on the per-request path, so neither takes the balancer's
// lock: a weight lives under its backend's mutex and the session table
// is sharded by key hash — concurrent requests for different sessions
// proceed on different shard locks.

// SetWeight assigns the backend's lbfactor (values ≤ 0 or non-finite
// mean 1): a weight-2 backend receives twice a weight-1 backend's
// traffic because its lb_value increments are halved. NaN needs its
// own check — it compares false against 0, so it slipped through the
// `w <= 0` guard and poisoned every subsequent 1/weight lb_value
// update (internal/check testdata/weight-nan.script); ±Inf likewise
// passed and froze the increments at 1/Inf = 0.
func (b *Backend) SetWeight(w float64) {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		w = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.weight = w
}

// Weight returns the backend's lbfactor.
func (b *Backend) Weight() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.weightLocked()
}

// sessionShards is the session-table shard count. A power of two so the
// hash folds with a mask; 16 shards keep the table effectively
// contention-free at any worker count the proxy runs.
const sessionShards = 16

// sessionTable maps session keys to their pinned backend, sharded by
// FNV-1a of the key. RWMutex per shard: the overwhelmingly common
// operation is a read of an existing binding.
type sessionTable struct {
	shards [sessionShards]sessionShard
}

type sessionShard struct {
	mu sync.RWMutex
	m  map[string]*Backend
}

// sessionHash is FNV-1a over the key — allocation-free, good spread on
// cookie-shaped strings.
func sessionHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (t *sessionTable) shard(key string) *sessionShard {
	return &t.shards[sessionHash(key)&(sessionShards-1)]
}

func (t *sessionTable) get(key string) *Backend {
	if key == "" {
		return nil
	}
	s := t.shard(key)
	s.mu.RLock()
	be := s.m[key]
	s.mu.RUnlock()
	return be
}

func (t *sessionTable) bind(key string, be *Backend) {
	if key == "" {
		return
	}
	s := t.shard(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]*Backend)
	}
	s.m[key] = be
	s.mu.Unlock()
}

func (t *sessionTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Sessions reports the number of bound sessions.
func (b *Balancer) Sessions() int { return b.sessions.len() }

// AcquireSession is Acquire with mod_jk sticky-session semantics: when
// sticky sessions are enabled and the session key is non-empty, the
// request goes to the backend the session first landed on unless it is
// in Error or its endpoint acquisition fails — in which case the
// balancer falls back to normal selection and rebinds.
func (b *Balancer) AcquireSession(sessionKey string, requestBytes int64) (*Backend, Release, error) {
	if b.cfg.StickySessions && sessionKey != "" {
		if be := b.sessions.get(sessionKey); be != nil && be.State() != BackendError && !be.Quarantined() {
			policy := b.CurrentPolicy()
			if b.onAssign != nil {
				b.onAssign(be)
			}
			b.emitDecision(be)
			if b.acquireEndpoint(be, policy) {
				return be, Release{bal: b, be: be, requestBytes: requestBytes}, nil
			}
			b.noteFailure(be)
		}
	}
	be, release, err := b.Acquire(requestBytes)
	if err == nil && b.cfg.StickySessions {
		b.sessions.bind(sessionKey, be)
	}
	return be, release, err
}
