GO ?= go
# Where `make profile` scrapes the CPU profile from: bepi-serve's
# -debug-addr listener.
PROFILE_ADDR ?= localhost:6060
PROFILE_SECONDS ?= 15

.PHONY: build test race race-par vet fmt lint fma-check check bench bench-repo bench-par bench-kernels bench-prep profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean, naming the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "fmt: gofmt -l . lists:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond vet. staticcheck and govulncheck are used when
# installed (CI installs them); locally the target degrades to a note
# instead of failing on a missing tool.
lint: fmt vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# No fused multiply-add in the packages converted to explicit rounding, so
# their answers are the same bits on every GOARCH: cross-compile them for
# the three targets whose compilers fuse a product into a sum and fail if
# the assembly listing holds a fused instruction. The build cache is fresh,
# because -S prints only for packages it compiles: a warm cache prints
# nothing and would read 0. sparse and dense are not converted yet and
# stay out.
fma-check:
	@cache="$$(mktemp -d)"; status=0; \
	for arch in arm64 ppc64le s390x; do \
		case $$arch in arm64) fused='FN?M(ADD|SUB)D' ;; *) fused='FN?M(ADD|SUB)' ;; esac; \
		if ! out="$$(GOCACHE=$$cache GOOS=linux GOARCH=$$arch $(GO) build -gcflags=-S ./internal/vec ./internal/solver ./internal/core 2>&1)"; then \
			echo "$$out"; status=1; continue; \
		fi; \
		case "$$out" in *TEXT*) ;; *) echo "fma-check $$arch: no assembly listing"; status=1; continue ;; esac; \
		hits="$$(printf '%s\n' "$$out" | grep -E "[[:space:]]$$fused[[:space:]]" || true)"; \
		echo "fma-check $$arch: $$(printf '%s' "$$hits" | grep -c . || true) fused instructions in vec, solver, core and lu"; \
		if [ -n "$$hits" ]; then echo "$$hits"; status=1; fi; \
	done; \
	rm -rf "$$cache"; exit $$status

# Race-checks the whole module; the qexec/server concurrency stress tests
# only give real coverage under -race.
race:
	$(GO) test -race ./...

# Focused, repeated race pass over the parallel runtime and the kernels
# built on it — including the stress test of concurrent engine builds
# sharing one pool, where interleavings vary run to run — plus the obs
# histograms' record-vs-snapshot race test, the one-pass DILU operator
# (concurrent operators over one factorization, pooled engine workspaces),
# the compact CSR32 kernel paths and the value-free H-block pattern kernels
# checked against them, and the dynamic-index rebuild/swap protocol (root
# package: concurrent queries, updates, and
# background flushes over one index), the cluster tier's routing ring
# and its /personalized forward (retry on a ring successor, the caller's
# deadline, concurrent calls against engine swaps),
# and the bounded top-k search (the solver's one Probe hook halting a solve, set-equality
# property tests, concurrent qexec top-k searches), and the
# observability layer (the event ring, trace propagation across
# HTTP backends during engine swaps, histogram snapshot merging), and the
# STREAM probe, and the incremental rebuild path (delta classification, exact
# hub and spoke splices) racing concurrent queries, and qexec's keyed cache
# (a hot-set storm served from memory, a duplicate miss whose cancellation
# spares its twin),
# and the serving tiers' body codec in the server package (pooled chunk
# buffers, negotiation on both handlers, corrupt binary bodies retried on the
# ring successor), and the index write
# path (SlashBurn over the 32-bit, merge-free undirected view, the direct H assembly,
# save/load round trips sharing the index codec's chunk pool), and the
# metric tables (every metrics view of a dynamic shard and a coordinator
# scraped while queries run and flushes swap engines), and the column-width
# boundary (compact matrices, patterns and DILU factors at 65 535, 65 536
# and 65 537 columns, pooled kernels at both widths), and the ordering an
# engine holds once (the 32-bit permutation and the block LU's bounds,
# reassembled by built, loaded and patched engines), and the assembly of S
# (every column computed once into per-worker shards, scattered into the
# DILU triangles, against the triplet-summed reference at 1 and 4 workers),
# and S held as those triangles by every variant (S·x read off them on a
# pool, a delta's columns spliced into them row by row), and H11's block LU
# as one array (pooled solves on it while a refactor builds a patched copy),
# and the counting sort the builders share on the pool (par.Scatter under
# the undirected view, H's patterns and S's triangles at 1, 2, 3 and 7
# workers, and the saved index at 1 to 4).
race-par:
	$(GO) test -race -count=2 -run 'Par|Parallel|Pool|Shared|Concurrent|Nested|DILU|Eisenstat|Workspace|CSR32|Pattern|Dynamic|Swap|Panic|Ring|Cluster|Generation|TopK|StopWhen|Trace|Merge|Event|Snapshot|Stream|Delta|Cache|DuplicateMiss|SameGeneration|Queued|Wire|Vector|Negotiat|SlashBurn|BuildH|SaveLoad|Metric|ColumnWidth|Ordering|SchurAssembly|BlockLU|Refactor|Scatter|BoundsByWeight|Undirected|TriangleBuilder|WorkerCounts|Admission|Overload|Close|Deadline|Forward' \
		. ./internal/par/ ./internal/sparse/ ./internal/lu/ ./internal/core/ \
		./internal/obs/ ./internal/qexec/ ./internal/server/ ./internal/cluster/ \
		./internal/solver/ ./internal/reorder/ ./internal/graph/ \
		./internal/binio/

# The CI gate: everything must build, lint clean (gofmt and vet always;
# staticcheck/govulncheck when installed), and pass under the race
# detector, with an extra repeated pass over the parallel kernels.
check: lint race race-par

bench:
	$(GO) test -run '^$$' -bench BenchmarkQexecThroughput -benchmem ./internal/qexec/

# Smoke-run the repository benchmark (benchmark/README.md): all five
# workloads at -quick sizes, answers checked against the oracle, a few
# seconds. CI runs it so a change that breaks a workload end to end — a
# wrong answer, a failed op, a stack that no longer comes up — fails the
# build; the numbers it prints at these sizes are not measurements.
bench-repo:
	$(GO) run ./benchmark -quick

# Serial-vs-parallel kernel benchmarks (Schur build, H11 factorization,
# SpMV) across worker counts; compare the workers=1 and workers=N lines.
# BenchmarkProfileSchur profiles S the way Fig. 4 does, at 1 and 2 workers:
# the reordering, H's patterns, H11's block LU and S's columns, computed by
# preprocessing's own build (core.SchurColumns), stopped before the
# triangles.
bench-par:
	$(GO) test -run '^$$' -bench 'BenchmarkProfileSchur|BenchmarkFactorBlockDiag' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkParallelMulVec -benchmem ./internal/sparse/

# The one micro-benchmark target: one preconditioned Schur iteration (the
# one-pass DILU operator, 0 allocs/op), the back phase's H32·r2 on the
# scale-15 benchmark graph as a valued CSR32 against the pattern plus
# weights the engine keeps (stream-B/op: the bytes each pass moves), and
# the compact CSR32 SpMV, at a fixed small iteration count. What these
# kernels cost inside a query is gated by the repository benchmark
# (batch-solve's sparse.* and lu.* rows); this target shows them in
# isolation.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkSchurIteration|BenchmarkHBlockMulVec' -benchtime=100x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkCSR32MulVec -benchtime=100x -benchmem ./internal/sparse/

# Smoke-run the index write path — preprocessing, a format-v6 Save + Load
# round trip, and a hub and a spoke delta absorbed by a built and by a loaded
# engine —
# with allocation counts and the resulting index's MemoryBytes() (index-B),
# and for the round trip the saved file's size (file-B), so CI shows a
# return to per-word index I/O, append-grown arrays, a second copy of S, a
# widened file, weight-valued entries of S written with values, the pivots
# dropped from the file (and recomputed on load), 32-bit columns where 16
# bits hold them, a permutation wider
# than 32 bits or its inverse held beside it, a delta that patches a wide
# copy of S or of H's patterns instead of splicing rebuilt columns into
# them, or state only some engines carry (the built and loaded
# ApplyDelta lines must read the same index-B) as a jump in B/op, allocs/op,
# file-B or index-B next to the time. (The exact gates on those are
# TestPreprocessingAllocBudget, TestApplyDeltaAllocBudget — the hub-4op and
# spoke-batch deltas' bytes — and TestEveryEngineStateComposes in `make test`.) BenchmarkHubAndSpoke shows the reordering alone (hybrid
# scale 13): a return to a merged or 64-bit undirected view shows in its B/op.
# BenchmarkNewGraph and BenchmarkWithEdgeDeltas build the input graph (hybrid
# scale 13) and patch it as a Dynamic flush does: a return to 8-byte
# adjacency or in-degrees, or to slack capacity, shows in their B/op, and a
# return to per-row change lists in WithEdgeDeltas' allocs/op (4). The three
# passes the build runs on the pool — SlashBurn's undirected view
# (BenchmarkUndirected), H's patterns (BenchmarkBuildHBlocks) and S's columns
# with their scatter into its triangles (BenchmarkSchurTriangles), on the
# scale-15 benchmark graph — run at 1 and 2 workers: compare the two lines.
# BenchmarkDynamicFlush is a Dynamic writer's price per 4-op hub flush
# (hybrid scale 13): the delta rebuild plus the new engine's top-k
# calibration, whose share its calibrate-ms reports.
bench-prep:
	$(GO) test -run '^$$' -bench 'BenchmarkPreprocessBePI|BenchmarkSaveLoad|BenchmarkApplyDelta|BenchmarkDynamicFlush' -benchtime=3x -benchmem .
	$(GO) test -run '^$$' -bench BenchmarkHubAndSpoke -benchtime=3x -benchmem ./internal/reorder/
	$(GO) test -run '^$$' -bench 'BenchmarkNewGraph|BenchmarkWithEdgeDeltas|BenchmarkUndirected' -benchtime=3x -benchmem ./internal/graph/
	$(GO) test -run '^$$' -bench 'BenchmarkBuildHBlocks|BenchmarkSchurTriangles' -benchtime=3x -benchmem ./internal/core/

# Capture a CPU profile from a running bepi-serve (start it with
# -debug-addr $(PROFILE_ADDR)) and drop into the pprof shell:
#   make profile [PROFILE_ADDR=host:port] [PROFILE_SECONDS=15]
profile:
	$(GO) tool pprof -seconds $(PROFILE_SECONDS) http://$(PROFILE_ADDR)/debug/pprof/profile
