// Command uniloc-router fronts a uniloc-server cluster (DESIGN.md
// §15): it consistent-hashes each connecting phone's client ID onto
// one of the configured backends and splices the offload protocol
// through untouched (span context included), so the cluster
// looks like one big server to every client. Each backend owns a
// stable shard of client IDs; when one dies, only its clients
// re-route — everyone else keeps their node and their server-side
// session, which is what lets sequence-numbered resume survive
// node failures.
//
// Backends are marked down passively (dial failure) and, with
// -health-every, actively probed so restarted nodes rejoin the ring
// without operator action. With -metrics-addr, the telemetry registry
// — including the per-backend membership gauge
// uniloc_router_backend_up{backend="..."} — is exposed as Prometheus
// text at /metrics, so a scrape shows live cluster membership.
//
// The same listener carries the admin endpoint for live scale-out
// (DESIGN.md §17): POST /admin/add-backend?addr=host:port inserts a
// backend into the ring without a restart. Spliced connections whose
// client now hashes to the new backend are drained with a reset, and
// the reconnecting clients resume on it — the new node pulls their
// session states over the handoff mesh, so the move costs one
// reconnect, not a walk.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7030", "listen address for phone connections")
	backends := flag.String("backends", "", "comma-separated uniloc-server addresses (required)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (incl. uniloc_router_backend_up membership gauges) on this address (empty = off)")
	healthEvery := flag.Duration("health-every", 2*time.Second, "active backend TCP probe period; probes mark dead backends down and revive restarted ones (0 = passive-only)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "per-backend dial timeout")
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("uniloc-router: -backends is required (comma-separated uniloc-server addresses)")
	}

	reg := telemetry.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:    addrs,
		VNodes:      *vnodes,
		DialTimeout: *dialTimeout,
		HealthEvery: *healthEvery,
		Metrics:     reg,
	})
	if err != nil {
		log.Fatalf("uniloc-router: %v", err)
	}
	defer router.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("uniloc-router: %v", err)
	}
	log.Printf("uniloc-router listening on %s, %d backends (vnodes=%d, health-every=%v)",
		ln.Addr(), len(addrs), *vnodes, *healthEvery)

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("uniloc-router: metrics listener: %v", err)
		}
		addBackend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			backend := strings.TrimSpace(r.FormValue("addr"))
			if backend == "" {
				http.Error(w, "missing addr parameter", http.StatusBadRequest)
				return
			}
			moved := router.AddBackend(backend)
			if moved < 0 {
				http.Error(w, "already a member", http.StatusConflict)
				return
			}
			log.Printf("admin: backend %s added, %d spliced connections drained onto it", backend, moved)
			fmt.Fprintf(w, "added %s, drained %d connections\n", backend, moved)
		})
		go func() {
			log.Printf("metrics on http://%s/metrics (admin at /admin/add-backend)", mln.Addr())
			mux := telemetry.NewMux(reg, telemetry.WithHandler("/admin/add-backend", addBackend))
			if err := http.Serve(mln, mux); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down", s)
		_ = ln.Close()
	}()

	router.ListenAndServe(ln, func(err error) { log.Printf("conn: %v", err) })
	for _, m := range router.Ring().Members() {
		log.Printf("backend %s up=%v", m.Addr, m.Up)
	}
}
