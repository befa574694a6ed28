package httpcluster

import "sync"

// Sticky sessions for the proxy's balancer, mod_jk's sticky_session.
// Sessions are identified by an opaque string (typically a cookie
// value). The table sits on the per-request path, so it does not take
// the balancer's lock: it is sharded by key hash, and concurrent
// requests for different sessions proceed on different shard locks.
// Whether a session's backend may serve it is the core's rule
// (lb.Core.Choose).

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
	s := t.shard(key)
	s.mu.RLock()
	be := s.m[key]
	s.mu.RUnlock()
	return be
}

func (t *sessionTable) bind(key string, be *Backend) {
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
// request goes to the backend the session is bound to unless it is in
// Error or drained or its endpoint acquisition fails — then that backend
// joins the dispatch's tried set like any failed choice, the policy
// chooses, and the session is bound to wherever the request lands.
func (b *Balancer) AcquireSession(sessionKey string, requestBytes int64) (*Backend, Release, error) {
	if !b.core.Config().StickySessions || sessionKey == "" {
		return b.acquire(nil, requestBytes)
	}
	be, rel, err := b.acquire(b.sessions.get(sessionKey), requestBytes)
	if err == nil {
		b.sessions.bind(sessionKey, be)
	}
	return be, rel, err
}
