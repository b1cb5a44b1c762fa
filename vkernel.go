// Package vkernel is a Go reproduction of "The Distributed V Kernel and
// its Performance for Diskless Workstations" (Cheriton & Zwaenepoel, SOSP
// 1983).
//
// It provides:
//
//   - A deterministic discrete-event simulation of SUN workstations
//     (MC68000 at 8/10 MHz, programmed-I/O Ethernet interfaces, 3 Mb and
//     10 Mb CSMA/CD Ethernets) running a complete implementation of the V
//     kernel's interprocess communication: Send/Receive/Reply with
//     32-byte messages, ReceiveWithSegment/ReplyWithSegment, MoveTo/
//     MoveFrom bulk transfer, alien descriptors, retransmission,
//     reply-pending packets, and broadcast name resolution.
//
//   - A V file server (Verex I/O protocol) with disk model, block cache,
//     read-ahead and write-behind, plus client stub routines, supporting
//     diskless workstations exactly as in the paper.
//
//   - Baseline protocols the paper compares against (WFS/LOCUS-style
//     specialized page access, streaming sequential access) and an
//     experiment harness that regenerates every table and numeric section
//     of the paper's evaluation.
//
//   - A real, runnable user-space V IPC runtime (internal/ipc) where
//     processes are goroutines and the interkernel protocol runs over UDP
//     or an in-memory transport with fault injection.
//
// The facade re-exports the pieces a downstream user needs; see README.md
// ("Package map" for the architecture, "Benchmarks" for how the
// paper-vs-measured tables are regenerated).
package vkernel

import (
	"vkernel/internal/core"
	"vkernel/internal/cost"
	"vkernel/internal/disk"
	"vkernel/internal/ether"
	"vkernel/internal/experiments"
	"vkernel/internal/fsrv"
	"vkernel/internal/sim"
	"vkernel/internal/stats"
)

// Core simulation types.
type (
	// Cluster bundles an engine, an Ethernet and workstation kernels.
	Cluster = core.Cluster
	// Kernel is the V kernel on one simulated workstation.
	Kernel = core.Kernel
	// Process is a V process (or alien descriptor).
	Process = core.Process
	// Message is the fixed 32-byte V message.
	Message = core.Message
	// Pid is a 32-bit process identifier with an embedded logical host.
	Pid = core.Pid
	// KernelConfig carries per-kernel tunables.
	KernelConfig = core.Config
	// Profile is a calibrated workstation timing model.
	Profile = cost.Profile
	// EthernetConfig describes a network segment.
	EthernetConfig = ether.Config
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// FileServer is the V file server.
	FileServer = fsrv.Server
	// FileClient provides the file-access stub routines.
	FileClient = fsrv.Client
	// FileServerConfig tunes the file server.
	FileServerConfig = fsrv.Config
	// Disk is the simulated drive.
	Disk = disk.Disk
	// Experiment is one reproducible paper experiment.
	Experiment = experiments.Experiment
	// ExperimentResult is an experiment's tables and notes.
	ExperimentResult = experiments.Result
	// Table is a paper-vs-measured result table.
	Table = stats.Table
)

// Common constructors and constants, re-exported for discoverability.
var (
	// NewCluster creates a seeded simulation with one Ethernet segment.
	NewCluster = core.NewCluster
	// MC68000 returns the calibrated profile for a SUN workstation.
	MC68000 = cost.MC68000
	// Ethernet3Mb is the paper's experimental 3 Mb network.
	Ethernet3Mb = ether.Ethernet3Mb
	// Ethernet10Mb is the §8 standard Ethernet.
	Ethernet10Mb = ether.Ethernet10Mb
	// NewDisk creates a simulated drive.
	NewDisk = disk.New
	// StartFileServer spawns a file server on a kernel.
	StartFileServer = fsrv.Start
	// NewFileClient binds file-access stubs to a server.
	NewFileClient = fsrv.NewClient
	// Experiments lists every reproduced table/figure in paper order.
	Experiments = experiments.Registry
	// FindExperiment looks an experiment up by id (e.g. "table51").
	FindExperiment = experiments.Find
)

// Interface generations for MC68000 profiles.
const (
	Iface3Mb  = cost.Iface3Mb
	Iface10Mb = cost.Iface10Mb
)

// Millisecond re-exports the simulated-time unit.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)
