package router

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is one sr-serve replica in the pool. Health and load are
// atomics so the proxy hot path reads them lock-free; the health loop
// owns the readmission streak.
type Backend struct {
	// URL is the replica's base URL (scheme + host, no path).
	URL *url.URL
	// Index is the backend's position in the configured list; it names
	// the per-backend metrics (sr_router_backend_*_<index>) and breaks
	// placement ties deterministically.
	Index int

	healthy  atomic.Bool
	inflight atomic.Int64
}

// Healthy reports whether the backend is in rotation.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Inflight returns the number of proxied requests currently against
// this backend (hedged attempts count individually — they occupy a
// replica slot each).
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// PoolConfig tunes health checking and per-backend admission.
type PoolConfig struct {
	// HealthInterval is the /healthz poll period (default 250ms). The
	// drain window a rolling restart must wait out is one interval plus
	// the health timeout.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// ReadmitAfter is how many consecutive probe passes an ejected
	// backend needs before re-entering rotation (default 2) — one pass
	// can race a flapping restart.
	ReadmitAfter int
	// MaxInflight caps concurrently proxied requests per backend
	// (default 32). A backend at the cap is ineligible for placement;
	// when every healthy backend is at the cap the router sheds with
	// 429 + Retry-After.
	MaxInflight int
}

// withDefaults fills unset fields.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.ReadmitAfter < 1 {
		c.ReadmitAfter = 2
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 32
	}
	return c
}

// Pool is the health-checked backend set. One goroutine per backend
// polls /healthz: a failing or draining (non-200) probe ejects the
// backend from rotation, ReadmitAfter consecutive passes re-admit it.
// The proxy also ejects passively on transport errors and backend
// drain 503s, so reaction to a killed or draining replica is bounded
// by the in-flight request, not the poll interval.
type Pool struct {
	cfg      PoolConfig
	backends []*Backend
	client   *http.Client
	met      *Metrics

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewPool parses the backend URLs and probes each one synchronously so
// the router starts with an accurate rotation. met may be nil (metrics
// off); otherwise it must be built for len(urls) backends.
func NewPool(urls []string, cfg PoolConfig, met *Metrics) (*Pool, error) {
	cfg = cfg.withDefaults()
	if len(urls) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	if met == nil {
		met = NewMetrics(nil, len(urls))
	}
	p := &Pool{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.HealthTimeout},
		met:    met,
		stop:   make(chan struct{}),
	}
	for i, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: backend %q: want scheme://host[:port]", raw)
		}
		p.backends = append(p.backends, &Backend{URL: u, Index: i})
	}
	// Initial synchronous probe: the router answers its own /healthz
	// from this state, so it must not claim a dead fleet is up.
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			if p.probe(b) {
				b.healthy.Store(true)
			}
		}(b)
	}
	wg.Wait()
	p.syncMetrics()
	return p, nil
}

// Backends returns the full configured set, in index order.
func (p *Pool) Backends() []*Backend { return p.backends }

// NumHealthy counts backends in rotation.
func (p *Pool) NumHealthy() int {
	n := 0
	for _, b := range p.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// probe performs one /healthz round trip.
func (p *Pool) probe(b *Backend) bool {
	resp, err := p.client.Get(b.URL.JoinPath("/healthz").String())
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Start launches the health loops. Stop with Close.
func (p *Pool) Start() {
	for _, b := range p.backends {
		p.wg.Add(1)
		go p.healthLoop(b)
	}
}

// Close stops the health loops and waits for them to exit. Idempotent.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// healthLoop polls one backend until Close.
func (p *Pool) healthLoop(b *Backend) {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	streak := 0
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		pass := p.probe(b)
		switch {
		case pass && !b.healthy.Load():
			streak++
			if streak >= p.cfg.ReadmitAfter {
				b.healthy.Store(true)
				streak = 0
				p.met.Readmits.Inc()
				p.syncMetrics()
			}
		case !pass:
			streak = 0
			p.eject(b)
		}
	}
}

// eject takes a backend out of rotation (health-loop probe failure or
// a passive signal from the proxy: transport error or drain 503).
// Idempotent per transition, so concurrent proxies and the health loop
// count each ejection once.
func (p *Pool) eject(b *Backend) {
	if b.healthy.CompareAndSwap(true, false) {
		p.met.Ejections.Inc()
		p.syncMetrics()
	}
}

// acquire reserves an in-flight slot on b; the caller must release it.
func (p *Pool) acquire(b *Backend) {
	p.met.backendLoad[b.Index].Set(float64(b.inflight.Add(1)))
}

// release frees an in-flight slot on b.
func (p *Pool) release(b *Backend) {
	p.met.backendLoad[b.Index].Set(float64(b.inflight.Add(-1)))
}

// syncMetrics refreshes the rotation gauges from the backends' current
// health.
func (p *Pool) syncMetrics() {
	n := 0
	for _, b := range p.backends {
		up := 0.0
		if b.healthy.Load() {
			up = 1
			n++
		}
		p.met.backendUp[b.Index].Set(up)
	}
	p.met.BackendsHealthy.Set(float64(n))
}

// eligible reports whether b can take one more request right now.
func (p *Pool) eligible(b *Backend) bool {
	return b.healthy.Load() && b.inflight.Load() < int64(p.cfg.MaxInflight)
}
