package builtins

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// url substrate: a pool of incoming packets, a pattern table for URL-based
// switching, and a log file. Dequeuing mutates the shared pool; logging
// appends to the shared log; the match against the pattern table is the
// parallel compute. The protocol allows out-of-order switching, which the
// paper expresses with SELF commutativity on dequeue and logging.

var urlPatterns = []string{
	"/api/v1/users", "/api/v1/orders", "/static/img", "/static/css",
	"/search", "/checkout", "/cart", "/product", "/admin", "/health",
}

// SetupPackets installs n deterministic packets.
func (w *World) SetupPackets(n int) {
	h := uint64(0xdeadbeef)
	for i := 0; i < n; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		pat := urlPatterns[h%uint64(len(urlPatterns))]
		w.packets = append(w.packets, packet{
			url:  fmt.Sprintf("%s/%d?session=%d", pat, i, h%9973),
			size: int64(200 + h%1200),
		})
	}
	w.routes = make([]string, len(urlPatterns))
	for i, p := range urlPatterns {
		w.routes[i] = "route" + fmt.Sprintf("%d:%s", i, p)
	}
}

func registerNet() {
	register("pkt_count", nil, ast.TInt, rw("pkt.pool"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(len(w.packets))), 10, nil
		})
	// pkt_dequeue removes the next packet from the shared pool and returns
	// its handle (the pool mutation the paper marks self-commutative).
	register("pkt_dequeue", nil, ast.TInt, rw("pkt.pool"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			if w.pktNext >= len(w.packets) {
				return value.Value{}, 0, errArg("pkt_dequeue", "pool exhausted")
			}
			h := w.pktNext
			w.pktNext++
			return value.Int(int64(h)), 70, nil
		})
	// url_match walks the pattern table against the packet's URL: the
	// per-packet compute of the switch.
	register("url_match", []ast.Type{ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			h := args[0].AsInt()
			if h < 0 || h >= int64(len(w.packets)) {
				return value.Value{}, 0, errArg("url_match", "bad packet")
			}
			url := w.packets[h].url
			match := -1
			steps := 0
			for i, p := range urlPatterns {
				steps += len(p)
				if strings.HasPrefix(url, p) {
					match = i
					break
				}
			}
			// Scan the URL tail as deeper protocol processing.
			sum := 0
			for _, c := range url {
				sum += int(c)
			}
			cost := int64(steps)*14 + int64(len(url))*85 + int64(sum%7)
			return value.Int(int64(match)), cost, nil
		})
	register("pkt_field", []ast.Type{ast.TInt}, ast.TString, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			h := args[0].AsInt()
			if h < 0 || h >= int64(len(w.packets)) {
				return value.Value{}, 0, errArg("pkt_field", "bad packet")
			}
			return value.Str(w.packets[h].url), 15, nil
		})
	// log_pkt appends the packet's fields to the shared log file.
	register("log_pkt", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, rw("pkt.log"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			h, route := args[0].AsInt(), args[1].AsInt()
			if h < 0 || h >= int64(len(w.packets)) {
				return value.Value{}, 0, errArg("log_pkt", "bad packet")
			}
			w.logLines = append(w.logLines, fmt.Sprintf("pkt%d -> %d (%dB)", h, route, w.packets[h].size))
			return value.Void(), 110, nil
		})
}
