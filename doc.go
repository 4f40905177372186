// Package transparentedge is a from-scratch Go reproduction of
// "Transparent Access to 5G Edge Computing Services" and its follow-up,
// "Distributed On-Demand Deployment for Transparent Access to 5G Edge
// Computing Services" (Hammer & Hellwagner, Alpen-Adria-Universität
// Klagenfurt): an SDN controller that transparently redirects client
// requests to edge clusters and deploys containerized services on
// demand, together with every substrate the evaluation needs — an
// OpenFlow switch, a network emulator, a Docker engine, a Kubernetes
// control plane, a containerd runtime, image registries, and the
// bigFlows-derived workload.
//
// See README.md for the layout, DESIGN.md for the system inventory, the
// substitution map and one section per layer, and EXPERIMENTS.md for
// paper-vs-measured results.
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation.
package transparentedge
