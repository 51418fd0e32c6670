GO ?= go

.PHONY: all build vet fmt-check test race determinism sweep-check trace-check profile-smoke sensitivity-smoke spec-corpus-check spec-fuzz-smoke campaign-smoke campaign-corpus-check campaign-fuzz-smoke hash-fuzz-smoke checkpoint-fuzz-smoke checkpoint-smoke serve-smoke paper-check word-size-check fma-check perfbench-smoke examples-check docs-check cover profile ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must list no tracked Go file (perfbench/ included).
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "not gofmt-clean (run gofmt -w):"; echo "$$out"; exit 1; fi
	@echo "every tracked Go file is gofmt-clean"

test:
	$(GO) test ./...

# The whole suite under the race detector. The concurrent code is the
# runner's worker pool, the campaign executor's append and CellDone locks,
# the boot state a group's members share, and the satin-serve coordinator;
# everything the pool fans out must stay race-free too.
race:
	$(GO) test -race ./...

# The determinism regression: multi-seed sweeps must produce byte-identical
# output with workers=1 and workers=8. Sweeps described as data run as
# campaigns, so the campaign engine's worker-count and kill/resume
# invariance tests are part of it, boot and fork groups included
# (TestWorkerCountInvarianceBootGroups), and so is the boot-term identity
# (TestBootTermsMatchSeedBoot: a member built from a boot state whose chunk
# terms an earlier member memoized matches the member booted from the seed
# and the member with the hash cache off). The Go-closure batches on
# runner.Run (the sensitivity grid, the profiled sweep, RunSeeds) are
# checked in internal/experiment and the root package. Run under -race so
# the worker pool itself is exercised, not just its output.
determinism:
	$(GO) test -race -run 'TestDeterminism|TestWorkerCountInvariance|TestKillResumeByteIdentical|TestProfileSweepWorkerInvariance|TestBootTermsMatchSeedBoot' ./internal/runner ./internal/campaign ./internal/experiment . ./cmd/benchtables

# End-to-end sweep check: a multi-seed detection run, the sensitivity grid
# and the profiled sweep complete and are worker-count invariant at the CLI
# level. Both profiled runs write the same -profile-out path, so their
# stdout, which names it, compares too.
sweep-check:
	$(GO) build -o /tmp/benchtables_sweep ./cmd/benchtables
	/tmp/benchtables_sweep -detection -seeds 8 -workers 8 > /tmp/sweep8.txt
	/tmp/benchtables_sweep -detection -seeds 8 -workers 1 > /tmp/sweep1.txt
	cmp /tmp/sweep1.txt /tmp/sweep8.txt
	/tmp/benchtables_sweep -only=sensitivity -seeds 2 -quick -workers 1 > /tmp/sensitivity1.txt
	/tmp/benchtables_sweep -only=sensitivity -seeds 2 -quick -workers 8 > /tmp/sensitivity8.txt
	cmp /tmp/sensitivity1.txt /tmp/sensitivity8.txt
	/tmp/benchtables_sweep -seeds 3 -quick -profile-out /tmp/profile_sweep.txt -workers 1 > /tmp/profile_sweep1.stdout
	cp /tmp/profile_sweep.txt /tmp/profile_sweep1.txt
	/tmp/benchtables_sweep -seeds 3 -quick -profile-out /tmp/profile_sweep.txt -workers 8 > /tmp/profile_sweep8.stdout
	cmp /tmp/profile_sweep1.stdout /tmp/profile_sweep8.stdout
	cmp /tmp/profile_sweep1.txt /tmp/profile_sweep.txt
	@echo "detection, sensitivity and profiled sweep output is worker-count invariant"

# Trace-export smoke: stream a run's events to JSONL, then validate the
# file parses event by event.
trace-check:
	$(GO) run ./cmd/satin-sim -scans 1 -tp 1s -trace-out /tmp/trace.jsonl > /dev/null
	$(GO) run ./cmd/satin-sim -lint-trace /tmp/trace.jsonl

# Profiler smoke: run with the span profiler attached, emit every derived
# artifact (JSONL trace, Chrome/Perfetto trace, attribution table), lint
# both trace formats, and require a self-diff to report zero divergence.
profile-smoke:
	$(GO) run ./cmd/satin-sim -scans 1 -tp 1s \
		-trace-out /tmp/profile_smoke.jsonl \
		-chrome-trace /tmp/profile_smoke_chrome.json \
		-profile-out /tmp/profile_smoke_attribution.txt > /dev/null
	$(GO) run ./cmd/satin-sim -lint-trace /tmp/profile_smoke.jsonl
	$(GO) run ./cmd/satin-sim -lint-chrome /tmp/profile_smoke_chrome.json
	$(GO) run ./cmd/satin-sim -diff /tmp/profile_smoke.jsonl /tmp/profile_smoke.jsonl
	@echo "profiler artifacts validate; self-diff has zero divergence"

# Fault-injection sensitivity smoke: a reduced sweep (3 magnitudes,
# 2 seeds, 4 full scans) must complete and still show detection degrading
# from 100% at magnitude 0 — the shape assertions live in
# internal/experiment's sensitivity tests; this exercises the CLI path.
sensitivity-smoke:
	$(GO) run ./cmd/benchtables -only=sensitivity -seeds 2 -quick

# Conformance corpus through the binary: every manifest row's spec must
# reproduce its committed golden byte for byte via satin-sim -spec, and
# every committed spec must already be canonical (-dump-spec is the
# identity on it). The same contract runs in-process in spec_corpus_test.go;
# this target is the CLI-level proof.
spec-corpus-check:
	$(GO) build -o /tmp/satin-sim ./cmd/satin-sim
	@set -e; while read -r spec kind golden; do \
		case "$$spec" in ''|'#'*) continue;; esac; \
		case "$$kind" in \
			jsonl) out=/tmp/spec_corpus_out.jsonl; /tmp/satin-sim -spec $$spec -trace-out $$out > /dev/null;; \
			csv) out=/tmp/spec_corpus_out.csv; /tmp/satin-sim -spec $$spec -trace-out $$out > /dev/null;; \
			timeline) out=/tmp/spec_corpus_out.txt; /tmp/satin-sim -spec $$spec -timeline $$out > /dev/null;; \
			*) echo "unknown export kind $$kind in corpus.manifest"; exit 1;; \
		esac; \
		cmp $$out $$golden || { echo "$$spec ($$kind) drifted from $$golden"; exit 1; }; \
		echo "$$spec ($$kind) == $$golden"; \
	done < testdata/specs/corpus.manifest
	@set -e; for spec in testdata/specs/*.json; do \
		/tmp/satin-sim -spec $$spec -dump-spec > /tmp/spec_canonical.json; \
		cmp /tmp/spec_canonical.json $$spec || { echo "$$spec is not canonical; regenerate with: satin-sim -spec $$spec -dump-spec"; exit 1; }; \
	done
	@echo "spec corpus reproduces every golden; all committed specs are canonical"

# Short fuzz run over the spec parser: any input that parses and validates
# must canonicalize and build a scenario without panicking. The committed
# corpus seeds the fuzzer.
spec-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseSpec$$' -fuzztime 20s ./internal/spec

# Campaign end-to-end smoke through the binary: the committed smoke grid
# (2 evaders × 2 round counts × 2 fault plans × 2 seeds = 16 cells) run
# uninterrupted at 1 worker must be byte-identical to the same campaign run
# at 8 workers, killed after 7 cells (-campaign-max-cells, the deterministic
# kill), and resumed at 3 workers. This is the acceptance gate for the
# checkpoint format: completion order never leaks into the finalized file.
# The killed session runs with -progress: its CellDone hook must print
# exactly 7 cell lines and end on a 7/7 count. Every -campaign run groups
# cells that share boot work (each seed's smoke cells share one kernel
# boot); the ungrouped path those groups must match is checked in-process
# by TestCampaignCorpusReproducesGolden/grouped=false (make test) and
# TestWorkerCountInvarianceBootGroups (make determinism, under -race).
campaign-smoke:
	$(GO) build -o /tmp/benchtables ./cmd/benchtables
	rm -f /tmp/campaign_serial.result /tmp/campaign_resumed.result /tmp/campaign_killed.progress
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_serial.result -workers 1 > /dev/null
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_resumed.result -workers 8 -campaign-max-cells 7 -progress > /dev/null 2> /tmp/campaign_killed.progress
	@test "$$(grep -c '^campaign: cell ' /tmp/campaign_killed.progress)" -eq 7 || { echo "killed session did not report exactly 7 cells:"; cat /tmp/campaign_killed.progress; exit 1; }
	@grep '^campaign: [0-9]*/[0-9]* in ' /tmp/campaign_killed.progress | tail -n 1 | grep -q '^campaign: 7/7 in ' || { echo "killed session's last progress line is not 7/7:"; cat /tmp/campaign_killed.progress; exit 1; }
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_resumed.result -workers 3 > /dev/null
	cmp /tmp/campaign_serial.result /tmp/campaign_resumed.result
	@echo "campaign result is worker-count invariant, and kill/resume lands on the same bytes (the kill reporting its 7 cells)"

# Campaign corpus through the binary: the committed smoke campaign must
# reproduce its committed result file byte for byte. The same contract runs
# in-process in campaign_corpus_test.go; this target is the CLI-level proof
# (the sibling of spec-corpus-check for the campaign layer).
campaign-corpus-check:
	$(GO) build -o /tmp/benchtables ./cmd/benchtables
	rm -f /tmp/campaign_corpus.result
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_corpus.result -workers 4 > /dev/null
	cmp /tmp/campaign_corpus.result testdata/campaigns/smoke.result.golden || { echo "smoke campaign drifted from testdata/campaigns/smoke.result.golden"; exit 1; }
	@echo "campaign corpus reproduces its golden result file"

# Checkpoint/fork smoke through the CLIs: snapshot the committed fault-free
# prefix at its horizon, fork four members off it (unfaulted, two DVFS
# factors, a hotplug window), and require each forked trace byte-identical
# to its from-scratch twin — satin-sim -diff for the structural verdict, cmp
# for the byte-level one. See docs/CHECKPOINT.md.
checkpoint-smoke:
	$(GO) build -o /tmp/satin-sim ./cmd/satin-sim
	rm -rf /tmp/satin_ckpt_smoke && mkdir -p /tmp/satin_ckpt_smoke
	/tmp/satin-sim -spec testdata/checkpoint/prefix.json -checkpoint-out /tmp/satin_ckpt_smoke/prefix.ckpt > /dev/null
	@fail=0; for m in clean dvfs-slow dvfs-fast hotplug; do \
		/tmp/satin-sim -spec testdata/checkpoint/member-$$m.json -resume-from /tmp/satin_ckpt_smoke/prefix.ckpt -trace-out /tmp/satin_ckpt_smoke/fork-$$m.jsonl > /dev/null || exit 1; \
		/tmp/satin-sim -spec testdata/checkpoint/member-$$m.json -trace-out /tmp/satin_ckpt_smoke/scratch-$$m.jsonl > /dev/null || exit 1; \
		/tmp/satin-sim -diff /tmp/satin_ckpt_smoke/fork-$$m.jsonl /tmp/satin_ckpt_smoke/scratch-$$m.jsonl > /dev/null || { echo "member $$m: forked trace diverges from from-scratch"; fail=1; }; \
		cmp /tmp/satin_ckpt_smoke/fork-$$m.jsonl /tmp/satin_ckpt_smoke/scratch-$$m.jsonl || { echo "member $$m: forked trace bytes differ"; fail=1; }; \
	done; exit $$fail
	@echo "four forked members reproduce their from-scratch traces byte for byte"

# Sharded-campaign smoke: a satin-serve coordinator plus two worker
# processes drain the committed smoke campaign over the lease protocol, and
# the merged result must be byte-identical to the committed single-process
# golden — the cross-process half of the campaign-corpus contract.
# Required /metrics families: the smoke run fails if the coordinator stops
# exposing any of these (eager registration means they exist even at zero).
SERVE_SMOKE_METRICS := \
	satin_leases_granted_total satin_leases_expired_total \
	satin_leases_renewed_total satin_lease_stale_rejections_total \
	satin_uploads_verified_total satin_uploads_rejected_total \
	satin_merges_total satin_http_requests_total \
	satin_http_request_duration_seconds satin_job_cells_total \
	satin_job_cells_done satin_job_cells_per_second \
	satin_cell_duration_seconds satin_cells_forked_total \
	satin_cells_reported_total

serve-smoke:
	$(GO) build -o /tmp/satin-serve ./cmd/satin-serve
	$(GO) build -o /tmp/satin-sim ./cmd/satin-sim
	rm -rf /tmp/satin_serve_smoke && mkdir -p /tmp/satin_serve_smoke
	@set -e; \
	/tmp/satin-serve -listen 127.0.0.1:8397 -data /tmp/satin_serve_smoke/data & \
	server=$$!; trap 'kill $$server 2>/dev/null' EXIT; \
	for i in $$(seq 50); do /tmp/satin-serve -url http://127.0.0.1:8397 -status >/dev/null 2>&1 && break; sleep 0.1; done; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -submit testdata/campaigns/smoke.json -shards 2; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -worker -name w1 -dir /tmp/satin_serve_smoke/w1 2>/dev/null & \
	w1=$$!; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -metrics > /tmp/satin_serve_smoke/metrics_live.txt; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -worker -name w2 -dir /tmp/satin_serve_smoke/w2 2>/dev/null; \
	wait $$w1; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -watch c1; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -metrics > /tmp/satin_serve_smoke/metrics.txt; \
	for m in $(SERVE_SMOKE_METRICS); do \
		grep -q "^\# TYPE $$m " /tmp/satin_serve_smoke/metrics.txt \
			|| { echo "serve-smoke: /metrics is missing family $$m"; exit 1; }; \
	done; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -timeline c1 -timeline-out /tmp/satin_serve_smoke/timeline.json; \
	/tmp/satin-sim -lint-chrome /tmp/satin_serve_smoke/timeline.json; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -result c1 -out /tmp/satin_serve_smoke/merged.result; \
	cmp /tmp/satin_serve_smoke/merged.result testdata/campaigns/smoke.result.golden
	@echo "serve-smoke OK: golden bytes unchanged with live /metrics+/healthz scrapes; all required metric families present; timeline passes the Chrome lint"

# Short fuzz run over the campaign parser, seeded from the committed
# campaigns: any input that parses and validates must canonicalize, expand
# to cells, and round-trip without panicking.
campaign-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseCampaign$$' -fuzztime 20s ./internal/campaign

# Short fuzz run over the djb2 kernels: from any state, each kernel must
# equal the byte-at-a-time reference: the lane kernel (each 8-byte word
# reduced through 16- and 32-bit lanes, the state stepped once per 32
# bytes) and, on an AVX2 host, the vector kernel (128-byte blocks in four
# accumulators). The fold must also split affinely into h·33^len plus the
# chunk's term, the identity the boot-state chunk terms rest on.
hash-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzHashWordWide$$' -fuzztime 20s ./internal/introspect

# Short fuzz run over the SATINCKP decoder, which satin-sim -resume-from
# feeds files from disk: no input may panic it, and any input it accepts
# must re-encode to bytes that decode to an equal snapshot.
checkpoint-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeCheckpoint$$' -fuzztime 20s ./internal/checkpoint

# The paper, pinned: the no-flag benchtables run (every table and figure at
# seed 1, about 9 s on one core of a 2-vCPU Xeon) must print exactly the
# committed golden.
# A driver error exits non-zero and fails the target too. Regenerate the
# golden only when a change means to move the paper's numbers:
#   go run ./cmd/benchtables > cmd/benchtables/testdata/paper.stdout.golden
paper-check:
	$(GO) build -o /tmp/benchtables ./cmd/benchtables
	/tmp/benchtables > /tmp/paper.stdout
	cmp /tmp/paper.stdout cmd/benchtables/testdata/paper.stdout.golden || { echo "the paper run drifted from cmd/benchtables/testdata/paper.stdout.golden"; exit 1; }
	@echo "the paper run reproduces its golden byte for byte"

# Same bytes on a 32-bit word: the whole suite built for 386 (int is 32
# bits there), and a 32-bit no-flag paper run that must print exactly the
# golden the 64-bit run prints.
word-size-check:
	GOARCH=386 $(GO) test ./...
	GOARCH=386 $(GO) build -o /tmp/benchtables_386 ./cmd/benchtables
	/tmp/benchtables_386 > /tmp/paper_386.stdout
	cmp /tmp/paper_386.stdout cmd/benchtables/testdata/paper.stdout.golden || { echo "the 32-bit paper run drifted from cmd/benchtables/testdata/paper.stdout.golden"; exit 1; }
	@echo "the 386 suite passes and the 32-bit paper run reproduces the golden byte for byte"

# Floating-point products round before the add on every architecture.
# arm64's compiler fuses x + y*z into one rounding (FMADD and kin) unless
# the product is converted explicitly, even across an inlined call, which
# would move the last bits of a draw or a statistic there. Fails when the
# arm64 assembly of any function in FMA_CHECK_FUNCS holds a fused
# multiply-add, or when one is missing. Building introspect for arm64 also
# builds its non-amd64 djb2 kernel.
FMA_CHECK_FUNCS := simclock.Dist.Draw simclock.FloatDist.Draw \
	core.(*WakeQueue).refresh introspect.(*Baseline).armNext \
	faultinject.Install experiment.RunMSweep \
	stats.NewDist stats.NewBoxPlot stats.Percentile stats.Summarize stats.percentileSorted

fma-check:
	@GOARCH=arm64 $(GO) build -gcflags='satin/internal/...=-S' ./internal/simclock ./internal/core ./internal/introspect ./internal/faultinject ./internal/experiment ./internal/stats > /tmp/satin_arm64.s 2>&1 || { cat /tmp/satin_arm64.s; exit 1; }
	@awk -v funcs='$(FMA_CHECK_FUNCS)' ' \
		BEGIN { n = split(funcs, fs, " "); for (i = 1; i <= n; i++) want["satin/internal/" fs[i]] = 1 } \
		/^[^ \t].* STEXT/ { cur = ($$1 in want) ? $$1 : ""; if (cur != "") seen[cur] = 1 } \
		cur != "" && /\t(FMADD|FMSUB|FNMADD|FNMSUB)/ { print cur ": " $$0; bad = 1 } \
		END { for (f in want) if (!(f in seen)) { print "fma-check: no arm64 assembly for " f; bad = 1 }; exit bad }' /tmp/satin_arm64.s \
		|| { echo "fma-check: an arm64 function above fuses a multiply-add, or is missing"; exit 1; }
	@echo "the arm64 assembly of $(words $(FMA_CHECK_FUNCS)) functions holds no fused multiply-add"

# The benchmark, vetted and smoke-run. perfbench/ is its own Go module
# (replace satin => ../), so build, vet and test never compile it, yet it
# calls the kernel, golden-table, image, engine, campaign and serve APIs.
# Each workload runs for a second untraced and traced; perfbench exits
# non-zero when a pass misses its perfbench/refs.json digest or the smoke
# campaign misses its golden. run.sh builds into the gitignored
# .bench_build/.
perfbench-smoke:
	GOWORK=off GOFLAGS=-buildvcs=false $(GO) -C perfbench vet ./...
	@set -e; for w in sweep-forked campaign-served; do \
		for t in 0 1; do \
			echo "bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace $$t"; \
			bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace $$t > /tmp/perfbench_smoke.txt 2>&1 \
				|| { cat /tmp/perfbench_smoke.txt; echo "perfbench $$w --trace $$t failed"; exit 1; }; \
		done; \
	done
	@echo "perfbench vets clean, and both workloads run untraced and traced to exit status 0"

# The example programs, run end to end: `go build ./...` only compiles them.
# Each must exit 0 and print exactly its committed stdout.golden (every
# example is deterministic). examples/overhead drives the rich OS's
# scheduling path and examples/evasion the thread-level evader. Regenerate a
# golden only when a change means to move what its example prints:
#   go run ./examples/<name> > examples/<name>/stdout.golden
examples-check:
	@set -e; for ex in examples/*/; do \
		echo "go run ./$$ex"; \
		$(GO) run ./$$ex > /tmp/example.stdout || { echo "$$ex exited non-zero"; exit 1; }; \
		cmp /tmp/example.stdout $${ex}stdout.golden || { echo "$$ex drifted from $${ex}stdout.golden"; exit 1; }; \
	done
	@echo "every example runs to exit status 0 and prints its stdout.golden"

# Docs stay in sync with the code: every internal package opens with a
# '// Package <name>' doc comment (so `go doc` gives a real answer at each
# layer), appears in ARCHITECTURE.md's package map, every CLI flag the
# markdown docs show next to a binary name actually exists in that binary,
# and every number in a "Measured" column of EXPERIMENTS.md's E-sections is
# one the paper golden prints (TestExperimentsMeasuredCells).
docs-check:
	@fail=0; for d in internal/*/; do \
		grep -qs '^// Package' $$d*.go || { echo "missing '// Package' doc comment in $$d"; fail=1; }; \
	done; exit $$fail
	@echo "all internal packages documented"
	@fail=0; for d in internal/*/; do \
		p=$$(basename $$d); \
		grep -q "\`$$p\`" ARCHITECTURE.md || { echo "internal/$$p missing from ARCHITECTURE.md's package map"; fail=1; }; \
	done; exit $$fail
	@echo "every internal package is in ARCHITECTURE.md's package map"
	@rm -rf /tmp/satin_docscheck && mkdir -p /tmp/satin_docscheck
	@$(GO) build -o /tmp/satin_docscheck ./cmd/...
	@fail=0; for bin in satin-sim benchtables tzevader satin-serve; do \
		/tmp/satin_docscheck/$$bin -h 2>&1 | grep -oE '^  -[a-z0-9-]+' | tr -d ' ' > /tmp/satin_docscheck/$$bin.flags; \
		for f in $$(grep -ohE "$$bin"'[^#`]*' README.md EXPERIMENTS.md docs/*.md | grep -oE ' -[a-z][a-z0-9-]*' | sort -u); do \
			grep -qx -- "$$f" /tmp/satin_docscheck/$$bin.flags || { echo "docs show $$bin $$f but the binary has no such flag"; fail=1; }; \
		done; \
	done; exit $$fail
	@echo "every documented CLI flag exists in its binary"
	@$(GO) test -run '^TestExperimentsMeasuredCells$$' ./cmd/benchtables
	@echo "every Measured cell of EXPERIMENTS.md's E-sections is a number the paper golden prints"

# Coverage summary across all packages.
cover:
	$(GO) test -cover ./...

# CPU and heap profiles of the detection experiment (the test that drives
# it at reduced scale), for digging into the simulator's hot path. Writes
# /tmp/satin_cpu.prof, /tmp/satin_mem.prof and the test binary
# /tmp/satin.test (pprof needs it to symbolize).
profile:
	$(GO) test -run '^TestDetectionReproducesPaper$$' -count 5 \
		-cpuprofile /tmp/satin_cpu.prof -memprofile /tmp/satin_mem.prof -o /tmp/satin.test ./internal/experiment
	@echo "inspect with: $(GO) tool pprof /tmp/satin.test /tmp/satin_cpu.prof"

# Every blocking gate of the workflow's test job, in its order, so a local
# `make ci` pass means they all pass; perfbench-smoke, after paper-check,
# is the one that builds and runs the benchmark module. Only the workflow
# runs the four 20 s fuzz smokes (spec-fuzz-smoke, campaign-fuzz-smoke,
# hash-fuzz-smoke, checkpoint-fuzz-smoke) and cover.
ci: vet fmt-check build test race determinism sweep-check trace-check profile-smoke sensitivity-smoke spec-corpus-check campaign-smoke campaign-corpus-check checkpoint-smoke serve-smoke paper-check word-size-check fma-check perfbench-smoke examples-check docs-check
