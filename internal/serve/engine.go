package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/serve/cache"
	"repro/internal/tensor"
	rtrace "repro/internal/trace/request"
)

// ErrUnknownModel is returned by Upscale for an unregistered model name
// (HTTP 404).
var ErrUnknownModel = errors.New("serve: unknown model")

// ErrBadInput wraps client-side validation failures (HTTP 400).
var ErrBadInput = errors.New("serve: bad input")

// EngineConfig sizes the inference engine.
type EngineConfig struct {
	// Batch configures every model's micro-batching queue.
	Batch BatcherConfig
	// TileSize is the LR tile core edge; images larger than one tile in
	// either dimension are split into halo tiles and re-batched per
	// tile, bounding activation memory to one padded tile regardless of
	// image size (default 48, <0 disables tiling).
	TileSize int
	// Cache configures the content-addressed result cache in front of
	// the batcher (MaxBytes <= 0 disables it). Hits skip the forward
	// entirely; concurrent identical misses collapse into one forward
	// via singleflight. Both whole images and halo tiles are cached.
	Cache cache.Config
}

// ModelInfo describes one registered model (the /v1/models payload).
// Variant names the serving arithmetic (float32 / fused / int8); for
// compiled variants PSNRVsFloat32 carries the golden-set gate delta in
// dB the variant was admitted with (absent for the float32 reference
// and for bit-exact variants, whose delta is zero by construction).
type ModelInfo struct {
	Name          string   `json:"name"`
	Scale         int      `json:"scale"`
	Halo          int      `json:"halo"`
	Colors        int      `json:"colors"`
	Variant       string   `json:"variant"`
	PSNRVsFloat32 *float64 `json:"psnr_vs_float32_db,omitempty"`
}

// modelEntry is one registered model: its batcher plus the serving
// metadata reported by /v1/models.
type modelEntry struct {
	b       *Batcher
	variant string
	psnr    *float64
}

// Engine routes upscale requests to per-model batchers, tiling images
// that exceed the tile size. The first registered model is the default.
type Engine struct {
	cfg EngineConfig

	mu    sync.RWMutex
	mods  map[string]*modelEntry
	order []string

	cache  *cache.Cache
	met    *Metrics
	traces *rtrace.Store
}

// NewEngine creates an engine. met may be nil (metrics off). traces is
// the request-trace store the server records into and serves from
// /debug/traces; nil selects the default tail-sampled store.
func NewEngine(cfg EngineConfig, met *Metrics, traces *rtrace.Store) *Engine {
	if cfg.TileSize == 0 {
		cfg.TileSize = 48
	}
	if met == nil {
		met = NewMetrics(nil)
	}
	if traces == nil {
		traces = rtrace.NewStore(rtrace.Config{})
	}
	return &Engine{
		cfg:    cfg,
		mods:   map[string]*modelEntry{},
		cache:  cache.New(cfg.Cache, met.Cache, nil),
		met:    met,
		traces: traces,
	}
}

// TraceStore returns the engine's request-trace store.
func (e *Engine) TraceStore() *rtrace.Store { return e.traces }

// Cache returns the engine's result cache (nil when caching is off),
// for tests and benchmarks that inspect hit ratios.
func (e *Engine) Cache() *cache.Cache { return e.cache }

// Register adds a model under name, spinning up its batcher workers.
// The model is recorded as the float32 variant; compiled variants go
// through RegisterInfo with their gate result.
func (e *Engine) Register(name string, f Factory) error {
	return e.RegisterInfo(name, f, VariantFloat32, nil)
}

// RegisterInfo adds a model with explicit variant metadata. psnr, when
// non-nil, is the golden-set PSNR delta vs float32 (dB) the variant was
// admitted with — the caller runs the gate before registering.
func (e *Engine) RegisterInfo(name string, f Factory, variant string, psnr *float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.mods[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	e.mods[name] = &modelEntry{
		b:       NewBatcher(f, e.cfg.Batch, e.met),
		variant: variant,
		psnr:    psnr,
	}
	e.order = append(e.order, name)
	return nil
}

// Models lists the registered models in registration order.
func (e *Engine) Models() []ModelInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]ModelInfo, 0, len(e.order))
	for _, name := range e.order {
		m := e.mods[name]
		out = append(out, ModelInfo{
			Name: name, Scale: m.b.Scale(), Halo: m.b.Halo(), Colors: m.b.Colors(),
			Variant: m.variant, PSNRVsFloat32: m.psnr,
		})
	}
	return out
}

// entry resolves a model name ("" selects the default) to its
// registration and the resolved name (part of the cache key).
func (e *Engine) entry(name string) (*modelEntry, string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if name == "" {
		if len(e.order) == 0 {
			return nil, "", fmt.Errorf("%w: no models registered", ErrUnknownModel)
		}
		name = e.order[0]
	}
	m, ok := e.mods[name]
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, name, nil
}

// Upscale super-resolves one image with the default (background)
// context: the request can never be abandoned early. See UpscaleCtx.
func (e *Engine) Upscale(name string, x *tensor.Tensor) (*tensor.Tensor, error) {
	return e.UpscaleCtx(context.Background(), name, x)
}

// UpscaleCtx super-resolves one image (1, C, H, W) with the named model
// and returns a freshly allocated (1, C, H*s, W*s) result. Images within
// the tile size ride the batcher whole; larger images are split into
// halo tiles, submitted concurrently (so tiles from different requests
// coalesce into shared batches), and stitched. A request is atomic: if
// any tile is rejected by backpressure the whole request fails with that
// error.
//
// With the result cache enabled, the request is first looked up by
// content key (and, when tiled, per tile): hits skip the batcher
// entirely, and concurrent identical misses collapse into one forward.
// ctx only governs this request's singleflight waits — a cancelled ctx
// (client disconnect) unblocks the caller with ctx.Err() while any
// shared forward it was parked on keeps running; forwards themselves
// are never cancelled.
func (e *Engine) UpscaleCtx(ctx context.Context, name string, x *tensor.Tensor) (*tensor.Tensor, error) {
	ent, name, err := e.entry(name)
	if err != nil {
		return nil, err
	}
	b := ent.b
	if err := checkInput(x, b.Colors()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	began := rtrace.Now()
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	s := b.Scale()
	out := tensor.New(1, c, h*s, w*s)

	if e.cache == nil {
		err = e.forward(ctx, ent, name, x, out)
	} else {
		k := cache.MakeKey(cache.GranImage, name, ent.variant, s, e.cfg.TileSize, x)
		if !e.cache.Lookup(ctx, k, out) {
			err = e.cache.Do(ctx, k, out, func(o *tensor.Tensor) error {
				return e.forward(ctx, ent, name, x, o)
			})
		}
	}
	if err != nil {
		return nil, err
	}
	e.met.RequestSeconds.Observe(float64(rtrace.Now()-began) / 1e9)
	return out, nil
}

// forward computes the upscale of x into out through the batcher —
// whole for images within the tile size, tiled otherwise. Tiles consult
// the cache individually, so redundant tiles (across requests, or
// repeated within one image) are forwarded once.
func (e *Engine) forward(ctx context.Context, ent *modelEntry, name string, x, out *tensor.Tensor) error {
	b := ent.b
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	s := b.Scale()
	tile := e.cfg.TileSize
	if tile < 0 || (h <= tile && w <= tile) {
		// Whole image in one submission: no extract/stitch copies.
		return b.SubmitCtx(ctx, x, out)
	}
	a := rtrace.FromContext(ctx)
	tiles := SplitTiles(h, w, tile, b.Halo())
	e.met.Tiles.Add(int64(len(tiles)))
	errs := make([]error, len(tiles))
	outs := make([]*tensor.Tensor, len(tiles))
	var wg sync.WaitGroup
	for i, t := range tiles {
		wg.Add(1)
		go func(i int, t Tile) {
			defer wg.Done()
			xt := ExtractTile(x, t)
			outs[i] = tensor.New(1, c, (t.PY1-t.PY0)*s, (t.PX1-t.PX0)*s)
			if e.cache == nil {
				errs[i] = b.SubmitCtx(ctx, xt, outs[i])
				return
			}
			k := cache.MakeKey(cache.GranTile, name, ent.variant, s, tile, xt)
			if e.cache.Lookup(ctx, k, outs[i]) {
				return
			}
			errs[i] = e.cache.Do(ctx, k, outs[i], func(o *tensor.Tensor) error {
				return b.SubmitCtx(ctx, xt, o)
			})
		}(i, t)
	}
	wg.Wait()
	for _, terr := range errs {
		if terr != nil {
			return terr
		}
	}
	sstart := a.Now()
	for i, t := range tiles {
		StitchTile(out, outs[i], t, s)
	}
	a.EmitStage(rtrace.StageServeStitch, a.Root(), sstart, out.Bytes())
	return nil
}

// Shutdown drains every model's batcher: queued work completes, new
// submissions fail with ErrDraining, and the call returns when all
// workers have exited.
func (e *Engine) Shutdown() {
	e.mu.RLock()
	mods := make([]*Batcher, 0, len(e.mods))
	for _, m := range e.mods {
		mods = append(mods, m.b)
	}
	e.mu.RUnlock()
	for _, b := range mods {
		b.Shutdown()
	}
}
