# Build configuration for the BNS-GCN reproduction.
#
# GOAMD64 defaults to v3 (AVX2-era x86-64): the hand-written assembly
# kernels are CPUID-gated either way, but v3 lets the compiler use AVX/BMI
# and fused multiply-adds in the scalar tails and the rest of the runtime.
# CI proves the whole suite under both v1 and v3 (the bit-identity
# equivalence tests are within-build, so either mode is self-consistent).
# Override for baseline hardware with `make GOAMD64=v1 <target>`.
GOAMD64 ?= v3
export GOAMD64

GO ?= go

.PHONY: build test race bench bench-spmm bench-fused bench-epoch vet release

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, as CI runs it at every width
# (internal/experiments alone takes minutes under -race; hence the deadline).
race:
	$(GO) test -race -timeout 20m ./...

# Kernel + aggregation microbenchmarks.
bench-spmm:
	$(GO) test -run=xxx -bench='BenchmarkSpMM|BenchmarkMatMul$$' -benchtime=2s ./internal/tensor/

# Fused aggregate-project kernels against the unfused SpMM+copy+MatMul
# pipeline they replace (forward and the backward split sweep).
bench-fused:
	$(GO) test -run=xxx -bench='BenchmarkAggProj|BenchmarkBackwardSplit' -benchtime=2s ./internal/tensor/

bench-epoch:
	$(GO) test -run=xxx -bench='BenchmarkEpoch' -benchtime=100x ./internal/core/

bench: bench-spmm bench-fused bench-epoch

# Release build: the shipped binaries (trainer, partitioner, bench harness,
# inference server).
release: vet build
	$(GO) build -o bin/bnsgcn ./cmd/bnsgcn
	$(GO) build -o bin/bnspart ./cmd/bnspart
	$(GO) build -o bin/bnsbench ./cmd/bnsbench
	$(GO) build -o bin/bnsserve ./cmd/bnsserve
