// Command trustddl-party runs one TrustDDL computing party as a
// long-lived TCP server: it joins the five-actor mesh, waits for the
// model owner to distribute weight shares, and then serves training
// batches and inference requests until shut down. Together with a
// driver process (the owners) it realizes the distributed deployment of
// the paper's Fig. 1 across real machines.
//
// Usage:
//
//	trustddl-party -party 1 \
//	  -addrs "1=10.0.0.1:7001,2=10.0.0.2:7001,3=10.0.0.3:7001,4=10.0.0.4:7001,5=10.0.0.5:7001" \
//	  -key <seed-hex> -peer-keys "1=<pub>,2=<pub>,3=<pub>,4=<pub>,5=<pub>" \
//	  [-hbc] [-timeout 5s] [-send-timeout 2s] [-dial-timeout 2s] \
//	  [-send-retries 3] [-retry-backoff 50ms]
//
// The actor IDs are: 1..3 computing parties, 4 model owner, 5 data
// owner. SIGINT/SIGTERM shut the party down gracefully (in-flight
// connections are drained and the mesh endpoint unregistered); peers
// that restart are picked up again by the transport's
// redial-with-backoff.
//
// An inference pass's command carries the pass's absolute deadline
// (DESIGN.md §15): the party caps its waits at it and drops a command
// that arrives past it, judged by this machine's clock, so the hosts'
// clocks must agree to well within the driver's request timeout.
//
// Identity keys: run `trustddl-party -genkey` once per actor, keep the
// seed private to that actor and share the public key with everyone.
// With -key/-peer-keys the mesh runs mutually authenticated ed25519
// handshakes, so sender attribution (and Byzantine spoof conviction)
// holds even against malicious insiders. Without keys the mesh falls
// back to identification-only handshakes with a best-effort source-IP
// screen — fine for trusted networks, unsound for Byzantine attribution.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustddl-party:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustddl-party", flag.ContinueOnError)
	partyID := fs.Int("party", 0, "computing party index (1..3)")
	addrs := fs.String("addrs", "", "actor addresses as 'id=host:port' pairs, comma separated, for all five actors")
	hbc := fs.Bool("hbc", false, "run without the commitment phase (honest-but-curious mode)")
	timeout := fs.Duration("timeout", party.DefaultTimeout, "per-message receive timer")
	fracBits := fs.Uint("frac-bits", fixed.DefaultFracBits, "fixed-point fractional bits (must match the driver)")
	sendTimeout := fs.Duration("send-timeout", 0, "per-attempt frame write deadline (0 = transport default)")
	dialTimeout := fs.Duration("dial-timeout", 0, "per-attempt dial+handshake deadline (0 = transport default)")
	sendRetries := fs.Int("send-retries", 0, "send attempts incl. redials per message (0 = transport default)")
	retryBackoff := fs.Duration("retry-backoff", 0, "initial redial backoff, doubled per retry (0 = transport default)")
	rejoin := fs.Bool("rejoin", false, "announce this party as a restarted member so the driver re-provisions it from the latest checkpoint")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics on this address (/metrics JSON snapshot, /debug/vars, /debug/pprof); empty disables")
	genKey := fs.Bool("genkey", false, "generate a fresh ed25519 identity (seed + public key) and exit")
	keySeed := fs.String("key", "", "this party's ed25519 seed in hex (from -genkey); enables authenticated handshakes")
	peerKeys := fs.String("peer-keys", "", "all five actors' ed25519 public keys as 'id=hex' pairs, comma separated (required with -key)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *genKey {
		seed, pub, err := transport.GenerateSeedHex()
		if err != nil {
			return err
		}
		fmt.Printf("seed (keep private, pass via -key):   %s\npublic (share, list in -peer-keys):   %s\n", seed, pub)
		return nil
	}
	if *partyID < 1 || *partyID > 3 {
		return fmt.Errorf("-party must be 1, 2 or 3")
	}
	addrMap, err := parseAddrs(*addrs)
	if err != nil {
		return err
	}
	keyring, err := buildKeyring(*partyID, *keySeed, *peerKeys)
	if err != nil {
		return err
	}
	params, err := fixed.NewParams(*fracBits)
	if err != nil {
		return err
	}

	netw := transport.NewTCPNetwork(addrMap, transport.TCPOptions{
		Keyring:      keyring,
		DialTimeout:  *dialTimeout,
		SendTimeout:  *sendTimeout,
		SendAttempts: *sendRetries,
		RetryBackoff: *retryBackoff,
	})
	defer netw.Close()
	ep, err := netw.Endpoint(*partyID)
	if err != nil {
		return err
	}
	ctx, err := protocol.NewCtx(party.NewRouter(ep, *timeout), *partyID, params, !*hbc)
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry(fmt.Sprintf("party%d", *partyID))
		netw.SetObs(reg)
		ctx.SetObs(reg)
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer srv.Close()
		fmt.Printf("trustddl-party: metrics at http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr)
	}

	// Graceful shutdown: the first signal drains the transport (closing
	// the mesh endpoint makes ServeParty return nil); a second signal
	// kills the process the hard way.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		sig, ok := <-sigs
		if !ok {
			return
		}
		fmt.Printf("trustddl-party: %v — shutting down gracefully (signal again to force)\n", sig)
		_ = netw.Close()
		if _, ok := <-sigs; ok {
			os.Exit(1)
		}
	}()

	mode := "malicious"
	if *hbc {
		mode = "honest-but-curious"
	}
	fmt.Printf("trustddl-party: P%d serving at %s (%s mode, F=%d)\n",
		*partyID, addrMap[*partyID], mode, *fracBits)
	err = core.ServeParty(ctx, nn.OwnerSource{Ctx: ctx}, core.ServeOptions{Rejoin: *rejoin})
	// Unblock the signal goroutine on normal exit.
	signal.Stop(sigs)
	close(sigs)
	return err
}

func parseAddrs(s string) (map[int]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-addrs is required")
	}
	return parsePairs(s, "address")
}

// parsePairs parses comma-separated 'id=value' pairs covering all five
// actors — the shared format of -addrs and -peer-keys.
func parsePairs(s, what string) (map[int]string, error) {
	out := make(map[int]string, transport.NumActors)
	for _, pair := range strings.Split(s, ",") {
		id, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("malformed %s pair %q (want id=%s)", what, pair, what)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 1 || n > transport.NumActors {
			return nil, fmt.Errorf("bad actor id %q", id)
		}
		out[n] = val
	}
	for n := 1; n <= transport.NumActors; n++ {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("missing %s for actor %d (%s)", what, n, transport.ActorName(n))
		}
	}
	return out, nil
}

// buildKeyring assembles the mesh keyring from the -key/-peer-keys
// flags; both or neither must be given. A nil, nil return means the
// operator chose the unkeyed (identification-only) mesh.
func buildKeyring(self int, seedHex, peerKeys string) (*transport.Keyring, error) {
	switch {
	case seedHex == "" && peerKeys == "":
		return nil, nil
	case seedHex == "":
		return nil, fmt.Errorf("-peer-keys requires -key (this party's own seed)")
	case peerKeys == "":
		return nil, fmt.Errorf("-key requires -peer-keys (all five public keys)")
	}
	pubs, err := parsePairs(peerKeys, "public key")
	if err != nil {
		return nil, err
	}
	kr, err := transport.KeyringFromHex(pubs)
	if err != nil {
		return nil, err
	}
	if err := kr.AddPrivateSeedHex(self, seedHex); err != nil {
		return nil, err
	}
	return kr, nil
}
