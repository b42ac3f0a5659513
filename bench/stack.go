package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

const (
	// trainSeed is uniloc-server's default -seed: the error models and
	// the campus radio maps do not depend on the workload seed.
	trainSeed = 42

	// sessionSeed seeds every session's particle filters. A constant
	// (instead of uniloc-server's per-session counter) makes an answer
	// independent of which node served it and in which order sessions
	// opened, which is what lets every run check served walks against a
	// reference framework bit for bit.
	sessionSeed = 7
)

// spec is a workload's serving topology.
type spec struct {
	nodes   int
	router  bool // clients dial a cluster.Router instead of a node
	handoff bool // nodes form a cluster.Handoff mesh
	ingest  bool // the WiFi store accepts crowdsourced surveys
}

func specFor(workload string) spec {
	switch workload {
	case wlChurn:
		return spec{nodes: 2, router: true}
	case wlIngest:
		return spec{nodes: 1, ingest: true}
	case wlMigrate:
		return spec{nodes: 2, handoff: true}
	}
	return spec{nodes: 1}
}

// trained is the offline part of set-up: error models fitted in the
// training places and the campus assets every node serves.
type trained struct {
	models *core.ModelSet
	campus *scenario.Assets
}

func train() (*trained, error) {
	tr, err := eval.Train(trainSeed)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return &trained{models: tr.Models, campus: scenario.NewAssets(scenario.Campus(), trainSeed+100)}, nil
}

// factory builds sessions over the given radio maps. obs, when set, is
// attached with core.WithObserver.
func (t *trained) factory(wifi, cell fingerprint.Map, obs telemetry.Observer) core.FrameworkFactory {
	return func() (*core.Framework, error) {
		ss := t.campus.SchemesOver(wifi, cell, rand.New(rand.NewSource(sessionSeed)))
		if obs == nil {
			return core.NewFramework(ss, t.models)
		}
		return core.NewFramework(ss, t.models, core.WithObserver(obs))
	}
}

// probes are the traced phase's measurement hooks. With a nil *probes
// (the untraced phase) the only hook is the WiFi store's rebuild
// counter, which the ingest invariants need.
type probes struct {
	tracer    *trace.Tracer
	observer  *epochObserver
	factory   samples // µs per session framework built
	submit    samples // µs per Store.Submit behind SurveyIngest
	visible   visibility
	ship      samples // µs per ShipSession call
	shipBytes atomic.Int64
	shipCalls atomic.Int64
	fetch     samples // µs per FetchSession call
}

// visibility times crowdsourced points from submission until the
// compaction that folds them in.
type visibility struct {
	mu sync.Mutex
	at map[geo.Point][]time.Time
	ms samples
}

func (v *visibility) submitted(p geo.Point, t time.Time) {
	v.mu.Lock()
	if v.at == nil {
		v.at = make(map[geo.Point][]time.Time)
	}
	v.at[p] = append(v.at[p], t)
	v.mu.Unlock()
}

func (v *visibility) rebuilt(applied []fingerprint.Fingerprint) {
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, fp := range applied {
		q := v.at[fp.Pos]
		if len(q) == 0 {
			continue
		}
		v.ms.add(ms(now.Sub(q[0])))
		if len(q) == 1 {
			delete(v.at, fp.Pos)
		} else {
			v.at[fp.Pos] = q[1:]
		}
	}
}

// node is one in-process uniloc-server: its own registry, map stores
// and offload server on a loopback listener.
type node struct {
	reg        *telemetry.Registry
	wifi, cell *mapstore.Store
	srv        *offload.Server
	ln         net.Listener
	addr       string
	serving    sync.WaitGroup

	ho        *cluster.Handoff
	hoLn      net.Listener
	hoServing sync.WaitGroup

	rebuilds atomic.Int64 // WiFi store compactions seen by SetOnRebuild
}

// stack is a workload's whole serving side.
type stack struct {
	t     *trained
	spec  spec
	nodes []*node

	router     *cluster.Router
	routerReg  *telemetry.Registry
	routerLn   net.Listener
	routerAddr string
	routing    sync.WaitGroup

	connErrs atomic.Int64
}

// errf counts and logs connection-level errors from servers and the
// router; a clean run has none.
func (s *stack) errf(err error) {
	s.connErrs.Add(1)
	log.Printf("serving error: %v", err)
}

// newStack starts the workload's nodes with uniloc-server's default
// wiring (shared map stores, shared compute, a telemetry registry,
// per-connection stepping), plus the router or handoff mesh its
// topology needs. p adds the traced phase's probes.
func newStack(t *trained, sp spec, p *probes) (*stack, error) {
	s := &stack{t: t, spec: sp}
	for i := 0; i < sp.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		n := &node{reg: telemetry.NewRegistry(), ln: ln, addr: ln.Addr().String()}
		s.nodes = append(s.nodes, n)
		if sp.handoff {
			if n.hoLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	for i, n := range s.nodes {
		if err := s.startNode(i, n, p); err != nil {
			s.close()
			return nil, err
		}
	}
	if sp.router {
		s.routerReg = telemetry.NewRegistry()
		addrs := make([]string, len(s.nodes))
		for i, n := range s.nodes {
			addrs[i] = n.addr
		}
		r, err := cluster.NewRouter(cluster.RouterConfig{Backends: addrs, HealthEvery: 2 * time.Second, Metrics: s.routerReg})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = r
		if s.routerLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			s.close()
			return nil, err
		}
		s.routerAddr = s.routerLn.Addr().String()
		s.routing.Add(1)
		go func() { defer s.routing.Done(); r.ListenAndServe(s.routerLn, s.errf) }()
	}
	return s, nil
}

func (s *stack) startNode(i int, n *node, p *probes) error {
	storeCfg := func(name string) mapstore.Config {
		cfg := mapstore.Config{Name: name, RebuildBatch: 256, RebuildEvery: 30 * time.Second, Metrics: mapstore.NewMetrics(n.reg, name)}
		if s.spec.ingest {
			// Compactions fire on batch size alone, so their count tracks
			// the work done rather than the wall clock.
			cfg.RebuildBatch, cfg.RebuildEvery = 64, 0
		}
		return cfg
	}
	n.wifi = mapstore.New(s.t.campus.WiFiDB, storeCfg("wifi"))
	n.cell = mapstore.New(s.t.campus.CellDB, storeCfg("cellular"))
	stores := map[byte]*mapstore.Store{offload.MapWiFi: n.wifi, offload.MapCellular: n.cell}
	n.wifi.SetOnRebuild(func(_ uint64, applied []fingerprint.Fingerprint) {
		n.rebuilds.Add(1)
		if p != nil {
			p.visible.rebuilt(applied)
		}
	})

	var obs telemetry.Observer
	if p != nil {
		obs = p.observer
	}
	factory := s.t.factory(n.wifi, n.cell, obs)
	if p != nil {
		inner := factory
		factory = func() (*core.Framework, error) {
			t0 := time.Now()
			fw, err := inner()
			p.factory.addSince(t0)
			return fw, err
		}
	}
	cfg := offload.ServerConfig{
		Factory:       factory,
		IdleTimeout:   2 * time.Minute,
		EpochTimeout:  30 * time.Second,
		Metrics:       n.reg,
		BatchStores:   stores,
		SharedCompute: true,
	}
	if s.spec.ingest {
		cfg.MapStores = stores
		if p != nil {
			cfg.SurveyIngest = func(sv *offload.Survey) error {
				st := stores[sv.Map]
				if st == nil {
					return errors.New("unknown map")
				}
				pos := geo.Pt(sv.X, sv.Y)
				t0 := time.Now()
				err := st.Submit(fingerprint.Fingerprint{Pos: pos, Vec: sv.Vec})
				p.submit.addSince(t0)
				if err == nil {
					p.visible.submitted(pos, t0)
				}
				return err
			}
		}
	}
	if s.spec.handoff {
		var peers []string
		for j, m := range s.nodes {
			if j != i {
				peers = append(peers, m.hoLn.Addr().String())
			}
		}
		n.ho = cluster.NewHandoff(cluster.HandoffConfig{Peers: peers, Metrics: n.reg})
		n.hoServing.Add(1)
		go func() { defer n.hoServing.Done(); n.ho.ListenAndServe(n.hoLn, s.errf) }()
		cfg.ShipSession, cfg.FetchSession = n.ho.Ship, n.ho.Fetch
		if p != nil {
			cfg.ShipSession = func(id string, seq uint32, state []byte) {
				t0 := time.Now()
				n.ho.Ship(id, seq, state)
				p.ship.addSince(t0)
				p.shipBytes.Add(int64(len(state)))
				p.shipCalls.Add(1)
			}
			cfg.FetchSession = func(id string) []byte {
				t0 := time.Now()
				b := n.ho.Fetch(id)
				p.fetch.addSince(t0)
				return b
			}
		}
	}
	if p != nil {
		cfg.Tracer = p.tracer
	}
	srv, err := offload.NewServer(cfg)
	if err != nil {
		return err
	}
	n.srv = srv
	n.serving.Add(1)
	go func() { defer n.serving.Done(); srv.ListenAndServe(n.ln, s.errf) }()
	return nil
}

// entry is the address a client of node-affine walk k dials first.
func (s *stack) entry(k int) string {
	if s.spec.router {
		return s.routerAddr
	}
	return s.nodes[k%len(s.nodes)].addr
}

// close stops everything newStack started and waits for it. Clients
// must have closed their connections first: servers and the router
// wait for their connection goroutines.
func (s *stack) close() {
	if s.routerLn != nil {
		_ = s.routerLn.Close()
		s.routing.Wait()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		if n.srv != nil {
			_ = n.ln.Close()
			n.serving.Wait()
			n.srv.Close()
		} else if n.ln != nil {
			_ = n.ln.Close()
		}
	}
	// Handoff listeners wait for peer connections, which end when the
	// peers' shippers close, so close every mesh member before waiting.
	for _, n := range s.nodes {
		if n.hoLn != nil {
			_ = n.hoLn.Close()
		}
		if n.ho != nil {
			n.ho.Close()
		}
	}
	for _, n := range s.nodes {
		n.hoServing.Wait()
		if n.wifi != nil {
			n.wifi.Close()
			n.cell.Close()
		}
	}
}

// stats sums the nodes' session counters.
func (s *stack) stats() offload.Stats {
	var sum offload.Stats
	for _, n := range s.nodes {
		st := n.srv.Stats()
		sum.Injected += st.Injected
		sum.InjectFailures += st.InjectFailures
		sum.EpochsServed += st.EpochsServed
		sum.SharedLikHits += st.SharedLikHits
		sum.SharedLikMisses += st.SharedLikMisses
		sum.SharedTrackers += st.SharedTrackers
		sum.SharedBuilt += st.SharedBuilt
	}
	return sum
}

// counter sums one registry counter across the nodes.
func (s *stack) counter(name string, labels ...string) float64 {
	var sum float64
	for _, n := range s.nodes {
		v, _ := n.reg.Snapshot().Get(name, labels...)
		sum += v
	}
	return sum
}

// histogram sums one registry histogram's observation sum and count
// across the nodes.
func (s *stack) histogram(name string, labels ...string) (sum float64, count uint64) {
	for _, n := range s.nodes {
		h := n.reg.Histogram(name, "", nil, labels...)
		sum += h.Sum()
		count += h.Count()
	}
	return sum, count
}
