# PEACE reproduction — common development targets.

GO ?= go

.PHONY: all build test race bench bench-smoke experiments examples vet fmt cover clean ci fuzz staticcheck metrics-lint meshd-loopback meshd-drill chaos-soak metro-soak attack-soak

all: build test

# ci is the full gate: static checks, build, tests, the race detector
# over every package with concurrent paths (batch verifier, ingest queue,
# transport datapath, mesh forwarding, relay), a short fuzz smoke of
# every wire-facing decoder, and every meshd acceptance drill.
ci:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) metrics-lint
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/core/ ./internal/mesh/ ./internal/anonrelay/ ./internal/sgs/ ./internal/transport/ ./internal/transport/batchio/ ./internal/bn256/ ./internal/chaos/ ./internal/backbone/ ./internal/metrics/ ./internal/puzzle/ ./internal/revocation/
	$(MAKE) bench-smoke
	$(MAKE) fuzz
	$(MAKE) meshd-loopback
	$(MAKE) meshd-drill
	$(MAKE) chaos-soak
	$(MAKE) metro-soak
	$(MAKE) attack-soak

# fuzz smoke: each wire-facing decoder gets a short randomized run, plus a
# differential fuzz of the Montgomery field core against big.Int and of
# the optimal-ate check schedule against the ate pairing.
fuzz:
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzGfPvsBigInt$$' -fuzztime=10s
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzCheckVsAte$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalBeacon$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalAccessRequest$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalPeerHello$$' -fuzztime=10s
	$(GO) test ./internal/revocation/ -run='^$$' -fuzz='^FuzzUnmarshalSnapshot$$' -fuzztime=10s
	$(GO) test ./internal/revocation/ -run='^$$' -fuzz='^FuzzUnmarshalDelta$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalPingBody$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalPongBody$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalDataFrame$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalTicket$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalResumeRequest$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalRouterHello$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalRouterWelcome$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalLinkEnvelope$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalGossipBody$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalRelayBody$$' -fuzztime=10s
	$(GO) test ./internal/puzzle/ -run='^$$' -fuzz='^FuzzUnmarshalPuzzle$$' -fuzztime=10s
	$(GO) test ./internal/puzzle/ -run='^$$' -fuzz='^FuzzVerifySolution$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzPeekAccessRequest$$' -fuzztime=10s

# metrics-lint gates the instrument namespace: the registry itself
# panics on non-snake_case or kind-conflicting names at registration, and
# the lint tests instantiate every layer's production registry to prove
# all names are snake_case, unique, and collision-free across the
# registries meshd merges into one /metrics exposition.
metrics-lint:
	$(GO) test ./internal/metrics/ -run='^(TestRegistrationRules|TestInstrumentNamingLint)$$' -count=1

# staticcheck runs when the binary is present and is skipped (loudly) when
# it is not — the container image does not ship it and ci must not fetch
# tools from the network.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# meshd-loopback is the transport acceptance drill: 100 concurrent users
# through full M.1–M.3 over real UDP loopback at 5% induced datagram loss.
meshd-loopback:
	$(GO) run ./cmd/meshd -mode loopback -users 100 -loss 0.05

# meshd-drill is the revocation acceptance drill: the URL grows by two
# entries per round across four epochs while eight clients re-attach;
# clients must converge via deltas after one cold-start snapshot per list.
meshd-drill:
	$(GO) run ./cmd/meshd -mode drill -users 8 -rounds 4 -revoke 2

# chaos-soak is the self-healing acceptance drill: 100 maintained clients
# under 10% loss + 5% corruption + 2% duplication survive a mid-run
# revocation bump, a server restart and a 5s partition of a third of the
# fleet, and every client must re-establish with zero invariant
# violations. Deterministic fault decisions from -seed.
chaos-soak:
	$(GO) run ./cmd/meshd -mode chaos -users 100 -seed 42 -storm 2s -partition 5s

# metro-soak is the roaming acceptance drill: 8 backbone routers under
# lossy/corrupting/duplicating inter-router links, one router partitioned
# mid-wave, while 200 users each make 3 cross-router moves on resumption
# tickets. Gate: 100% session continuity (exactly one pairing per user,
# zero resume fallbacks) and every router refuses a revocation rollback
# after a fleet-wide epoch bump.
metro-soak:
	$(GO) run ./cmd/meshd -mode metro -routers 8 -users 200 -moves 3 -soak -partition 2s

# attack-soak is the adaptive-DoS acceptance drill: a seeded attacker
# fleet (spoofed-source garbage floods, solution-less skeleton M.2s,
# cross-source solution replays) storms the attach ingress an order of
# magnitude above the legitimate rate while 16 legit clients hold and
# establish sessions through it. Gate: ≥95% of the legit fleet keeps a
# working session, demanded difficulty ratchets ≥2 steps during the storm
# and decays to 0 within the bound after it, replayed solutions are
# refused, and the flood buys the attacker no pairings.
attack-soak:
	$(GO) run ./cmd/meshd -mode attack -users 16 -seed 42 -storm 2s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/mesh/ ./internal/anonrelay/ ./internal/sgs/ ./internal/transport/ ./internal/transport/batchio/ ./internal/bn256/ ./internal/chaos/ ./internal/backbone/ ./internal/metrics/ ./internal/puzzle/ ./internal/revocation/

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every transport/wire benchmark once with
# allocation accounting, then gates on the steady-state paths staying
# allocation-free: TestSteadyStateDecodeAllocs pins the decode side,
# TestDataPlaneAllocs pins the whole batched ingest+egress round trip at
# 0 allocs/op, and TestSealOpenAllocs pins the in-place session crypto
# (the -benchtime=1x pass catches benchmarks that rot).
bench-smoke:
	$(GO) test ./internal/transport/ ./internal/wire/ -run='^(TestSteadyStateDecodeAllocs|TestDataPlaneAllocs)$$' -bench=. -benchmem -benchtime=1x
	$(GO) test ./internal/core/ -run='^TestSealOpenAllocs$$' -v -count=1

experiments:
	$(GO) run ./cmd/peacebench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/audittrace
	$(GO) run ./examples/dosdefense
	$(GO) run ./examples/keyrotation
	$(GO) run ./examples/anoncomm
	$(GO) run ./examples/citymesh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
