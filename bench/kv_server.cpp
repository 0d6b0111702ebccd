//===- bench/kv_server.cpp - SATM-KV network server ----------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Serves the SATM-KV store over TCP: the store and durability plane
// bench/kv_service runs in-process (bench/ServiceStack.h, same +DEA
// strong-atomicity configuration), fronted by the src/net epoll server
// (DESIGN.md §13), whose I/O threads run each request they decode.
// Clients speak the binary protocol of net/Protocol.h; bench/kv_loadgen
// drives it open-loop.
//
// It runs until a SHUTDOWN frame (kv_loadgen --stop-server), SIGINT or
// SIGTERM, then tears down in order: server, checkpointer, WAL.
// --port-file publishes an ephemeral port for scripted runs.
//
//===----------------------------------------------------------------------===//

#include "ServiceStack.h"

#include "net/Server.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace satm;
using namespace satm::bench;

namespace {

/// The serving instance, for the signal handler. requestStop() is only an
/// atomic store plus an eventfd write, both async-signal-safe.
std::atomic<net::Server *> GServer{nullptr};

void onStopSignal(int) {
  if (net::Server *Sv = GServer.load(std::memory_order_acquire))
    Sv->requestStop();
}

/// Ephemeral-port handshake for scripted runs: the bound port appears in
/// the file only after the listener is live, so a poller that read it can
/// connect immediately.
bool writePortFile(const std::string &Path, uint16_t Port) {
  std::string Tmp = Path + ".tmp";
  FILE *PF = std::fopen(Tmp.c_str(), "w");
  if (!PF)
    return false;
  std::fprintf(PF, "%u\n", unsigned(Port));
  std::fclose(PF);
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

int runServe(const StackConfig &C, net::ServerConfig NC,
             const std::string &PortFile) {
  ServiceStack St("kv_server", C, /*Snapshots=*/false, "serve");
  NC.Shed = C.Policy == OverloadPolicy::Shed;
  NC.DeadlineUs = C.DeadlineUs;
  NC.RetryBudget = C.RetryBudget;
  NC.SyncWal = St.syncWal();
  NC.StatsWal = St.wal();

  net::Server Sv(St.S, NC);
  std::string Err;
  if (!Sv.start(&Err)) {
    std::fprintf(stderr, "kv_server: cannot serve: %s\n", Err.c_str());
    return 1;
  }
  GServer.store(&Sv, std::memory_order_release);
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  if (!PortFile.empty() && !writePortFile(PortFile, Sv.port())) {
    std::fprintf(stderr, "kv_server: cannot write %s\n", PortFile.c_str());
    Sv.stop();
    return 1;
  }
  std::printf("kv_server: serving %s:%u (io=%u batch=%u overload=%s "
              "durability=%s)\n",
              NC.Host.c_str(), unsigned(Sv.port()), NC.IoThreads, NC.NetBatch,
              NC.Shed ? "shed" : "queue",
              kv::durabilityModeName(C.Dur));
  std::fflush(stdout);

  while (!Sv.stopRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Ordered teardown (DESIGN.md §13): the server executes its last
  // batches and closes every socket before the WAL stops, so no late
  // batch can append to a stopped log.
  Sv.stop();
  GServer.store(nullptr, std::memory_order_release);
  net::ServerStats SS = Sv.stats();
  std::printf("kv_server: served %" PRIu64 " requests (%" PRIu64
              " responses, %" PRIu64 " bad frames), %" PRIu64
              " conns accepted, batch_avg %.2f, shed %" PRIu64
              " queue-full + %" PRIu64 " deadline, max queue depth %" PRIu64
              "\n",
              SS.Requests, SS.Responses, SS.BadFrames, SS.Accepted,
              SS.batchAvg(), SS.ShedQueueFull, SS.ShedDeadline,
              SS.MaxQueueDepth);
  St.stopDurability();
  if (St.CP) {
    kv::CheckpointStats CS = St.CP->stats();
    std::printf("kv_server: %" PRIu64 " checkpoints written (%" PRIu64
                " wal bytes truncated)\n",
                CS.Written, CS.WalTruncatedBytes);
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  StackConfig C;
  net::ServerConfig NC;
  std::string PortFile;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (int Got = parseStackFlag("kv_server", A, C)) {
      if (Got < 0)
        return 2;
      continue;
    }
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) ? nullptr : A + N;
    };
    const char *V;
    if ((V = Val("--serve="))) {
      // addr:port, e.g. --serve=127.0.0.1:7400 (port 0 = ephemeral).
      const char *Colon = std::strrchr(V, ':');
      if (!Colon || Colon == V) {
        std::fprintf(stderr, "kv_server: --serve needs addr:port\n");
        return 2;
      }
      NC.Host.assign(V, size_t(Colon - V));
      NC.Port = uint16_t(std::atoi(Colon + 1));
    } else if ((V = Val("--io-threads=")))
      NC.IoThreads = unsigned(std::atoi(V));
    else if ((V = Val("--net-batch=")))
      NC.NetBatch = uint32_t(std::atoi(V));
    else if ((V = Val("--queue-cap=")))
      NC.QueueCap = uint32_t(std::atoi(V));
    else if ((V = Val("--port-file=")))
      PortFile = V;
    else {
      std::fprintf(stderr,
                   "usage: kv_server [--serve=ADDR:PORT] [--port-file=PATH]\n"
                   "                 [--io-threads=N] [--net-batch=N]\n"
                   "                 [--queue-cap=N]\n"
                   "                 [store flags]\n"
                   "%s(--serve defaults to 127.0.0.1:0, an ephemeral port)\n",
                   StackFlagsUsage);
      return 2;
    }
  }
  if (const char *Err = validateServiceFlags(stackFlags(C))) {
    std::fprintf(stderr, "kv_server: %s\n", Err);
    return 2;
  }
  return runServe(C, NC, PortFile);
}
