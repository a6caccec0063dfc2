//===- tests/server_test.cpp - socket front-end tests ---------------------===//
//
// End-to-end tests of the offchip-serve TCP layer against a real
// in-process SocketServer on an ephemeral port: the server-level methods
// (ping/apps/stats), a full optimize request over the wire, malformed-line
// handling, the line-length cap, pipelined ids, the already-bound-port
// diagnostic, and graceful shutdown (every admitted request answered before
// run() returns); and the line reader itself over a socketpair.
//
//===----------------------------------------------------------------------===//

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/Serialize.h"
#include "api/Socket.h"
#include "api/SocketServer.h"
#include "support/Format.h"

#include "gtest/gtest.h"

#include <chrono>
#include <iterator>
#include <optional>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace offchip;

namespace {

const char *TinyProgram = R"(
program tiny
array a dims 32 32 elem 8

nest sweep bounds 0:32 1:31 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";

/// A running server on an ephemeral port plus a connected line client.
class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Service.emplace(ServiceOptions{/*Workers=*/2, /*QueueDepth=*/8,
                                   /*CacheCapacity=*/8});
    Server.emplace(*Service, ServerOptions{"127.0.0.1", 0});
    std::string Err;
    ASSERT_TRUE(Server->start(&Err)) << Err;
    Runner = std::thread([this] { Server->run(); });
    Fd = connectTcp("127.0.0.1", Server->port(), &Err);
    ASSERT_GE(Fd, 0) << Err;
    Reader.emplace(Fd);
  }

  void TearDown() override {
    if (Fd >= 0)
      ::close(Fd);
    if (Runner.joinable()) {
      Server->requestStop();
      Runner.join();
    }
  }

  /// Sends one protocol line and parses the next response line.
  JsonValue roundtrip(const std::string &Line) {
    EXPECT_TRUE(sendAll(Fd, Line + "\n"));
    return nextResponse();
  }

  JsonValue nextResponse() {
    std::string Line;
    EXPECT_TRUE(Reader->readLine(&Line));
    std::string Err;
    std::optional<JsonValue> V = parseJson(Line, &Err);
    EXPECT_TRUE(V.has_value()) << Err << " in: " << Line;
    return V ? *V : JsonValue();
  }

  std::optional<SimService> Service;
  std::optional<SocketServer> Server;
  std::thread Runner;
  int Fd = -1;
  std::optional<LineReader> Reader;
};

std::string field(const JsonValue &V, const char *Key) {
  const JsonValue *F = V.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}

TEST_F(ServerTest, PingAppsStats) {
  JsonValue Pong = roundtrip("{\"id\":\"p1\",\"method\":\"ping\"}");
  EXPECT_EQ(field(Pong, "id"), "p1");
  EXPECT_EQ(field(Pong, "status"), "ok");

  JsonValue Apps = roundtrip("{\"method\":\"apps\"}");
  EXPECT_EQ(field(Apps, "status"), "ok");
  const JsonValue *List = Apps.find("apps");
  ASSERT_NE(List, nullptr);
  ASSERT_TRUE(List->isArray());
  // The 13 apps with their summaries, in the paper's order.
  const std::pair<const char *, const char *> Expected[] = {
      {"wupwise", "lattice-QCD dense 2D sweeps; stable partitioning"},
      {"swim", "shallow-water 5-point stencils + transposed boundary pass"},
      {"mgrid", "3D multigrid 7-point stencil with strided coarse level"},
      {"applu", "SSOR sweeps with alternating partition dimensions"},
      {"galgel", "dense matvec + transposed adjoint pass"},
      {"apsi", "3D meteorology advection sweeps"},
      {"gafort", "GA population sweep with window-local shuffle"},
      {"fma3d", "FEM gather/scatter; highest sharing and bank demand"},
      {"art", "neural-net weight sweeps, forward + transposed resonance"},
      {"ammp", "MD with local neighbor list + random long-range pairs"},
      {"hpccg", "CG with banded CRS SpMV"},
      {"minighost", "27-point halo stencil; high sharing and bank demand"},
      {"minimd", "MD force loop over sorted neighbor bins"},
  };
  ASSERT_EQ(List->size(), std::size(Expected));
  for (std::size_t I = 0; I < std::size(Expected); ++I) {
    EXPECT_EQ(field(List->at(I), "name"), Expected[I].first) << I;
    EXPECT_EQ(field(List->at(I), "summary"), Expected[I].second) << I;
  }

  JsonValue Stats = roundtrip("{\"method\":\"stats\"}");
  EXPECT_EQ(field(Stats, "status"), "ok");
  ASSERT_NE(Stats.find("completed"), nullptr);
  ASSERT_NE(Stats.find("cache_hits"), nullptr);
}

TEST_F(ServerTest, ServedOptimizeMatchesDirectExecution) {
  SimRequest R;
  R.Id = "opt-1";
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;

  JsonValue Answer = roundtrip(
      writeRequestLine(R).substr(0, writeRequestLine(R).size() - 1));
  SimResponse Served;
  std::string Err;
  ASSERT_TRUE(responseFromJson(Answer, &Served, &Err)) << Err;
  ASSERT_TRUE(Served.ok());
  EXPECT_EQ(Served.Id, "opt-1");
  EXPECT_EQ(Served.Key, requestKey(R).str());
  EXPECT_FALSE(Served.CacheHit);

  SimResponse Direct = executeRequest(R);
  EXPECT_EQ(toJson(Served.Plan).write(), toJson(Direct.Plan).write());

  // Same content, new id: a hit, same plan.
  R.Id = "opt-2";
  SimResponse Again;
  ASSERT_TRUE(responseFromJson(
      roundtrip(writeRequestLine(R).substr(
          0, writeRequestLine(R).size() - 1)),
      &Again, &Err))
      << Err;
  EXPECT_EQ(Again.Id, "opt-2");
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(toJson(Again.Plan).write(), toJson(Direct.Plan).write());
}

TEST_F(ServerTest, MalformedAndInvalidLinesAnswerErrors) {
  JsonValue NotJson = roundtrip("this is not json");
  EXPECT_EQ(field(NotJson, "status"), "error");

  JsonValue BadReq = roundtrip("{\"method\":\"simulate\"}");
  EXPECT_EQ(field(BadReq, "status"), "error");
  EXPECT_NE(field(BadReq, "error").find("app"), std::string::npos);

  JsonValue BadConfig = roundtrip(
      "{\"id\":\"c1\",\"method\":\"optimize\",\"app\":\"swim\","
      "\"config\":{\"mesh_x\":1}}");
  EXPECT_EQ(field(BadConfig, "id"), "c1");
  EXPECT_EQ(field(BadConfig, "status"), "error");
  const JsonValue *Diags = BadConfig.find("diagnostics");
  ASSERT_NE(Diags, nullptr);
  ASSERT_GT(Diags->size(), 0u);
  EXPECT_EQ(field(Diags->at(0), "field"), "MeshX");

  // A nonsense scale is a request error, not an ok answer to cache.
  JsonValue BadScale = roundtrip(
      "{\"id\":\"s1\",\"method\":\"simulate\",\"app\":\"swim\","
      "\"scale\":-1}");
  EXPECT_EQ(field(BadScale, "id"), "s1");
  EXPECT_EQ(field(BadScale, "status"), "error");
  EXPECT_NE(field(BadScale, "error").find("scale"), std::string::npos);

  // A negative wire integer is a request error, not a 2^64 - 2048 cache.
  EXPECT_NE(field(roundtrip("{\"id\":\"n1\",\"method\":\"simulate\","
                            "\"app\":\"swim\",\"config\":{"
                            "\"l1_size_bytes\":-2048}}"),
                  "error")
                .find("l1_size_bytes"),
            std::string::npos);

  // An optimal-scheme request under coherence is a config error: the
  // protocol flow does not model the scheme.
  JsonValue BadCombo = roundtrip(
      "{\"id\":\"o1\",\"method\":\"simulate\",\"app\":\"swim\","
      "\"scale\":0.1,\"config\":{\"coherence\":\"msi\","
      "\"optimal_scheme\":true}}");
  EXPECT_EQ(field(BadCombo, "status"), "error");
  Diags = BadCombo.find("diagnostics");
  ASSERT_NE(Diags, nullptr);
  ASSERT_EQ(Diags->size(), 1u);
  EXPECT_EQ(field(Diags->at(0), "field"), "OptimalScheme");

  // The connection survives all six errors.
  EXPECT_EQ(field(roundtrip("{\"id\":\"after\",\"method\":\"ping\"}"), "id"),
            "after");
  // The unparsable line and the three invalid requests count; the config
  // errors do not (they are well-formed requests answered with
  // diagnostics).
  EXPECT_EQ(Server->counters().ParseErrors, 4u);
}

TEST_F(ServerTest, PipelinedRequestsAllAnswered) {
  // Fire a burst without reading, then collect; ids correlate answers.
  std::string Burst;
  for (int I = 0; I < 8; ++I) {
    SimRequest R;
    R.Id = formatString("b%d", I);
    R.Kind = RequestKind::Optimize;
    R.Workload.ProgramText = TinyProgram;
    Burst += writeRequestLine(R);
  }
  ASSERT_TRUE(sendAll(Fd, Burst));
  std::set<std::string> Ids;
  for (int I = 0; I < 8; ++I) {
    JsonValue V = nextResponse();
    EXPECT_EQ(field(V, "status"), "ok");
    Ids.insert(field(V, "id"));
  }
  EXPECT_EQ(Ids.size(), 8u) << "every pipelined request answered exactly once";
}

TEST_F(ServerTest, GracefulStopDeliversInFlightAnswers) {
  SimRequest R;
  R.Id = "last";
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;
  ASSERT_TRUE(sendAll(Fd, writeRequestLine(R)));
  // Stop as soon as the request is admitted (stopping earlier may close
  // the connection before the line is even read — bytes still in the
  // kernel buffer are not "in flight"): the admitted request must be
  // answered and flushed before run() returns.
  while (Service->stats().Admitted == 0)
    std::this_thread::yield();
  Server->requestStop();
  Runner.join();
  JsonValue V = nextResponse();
  EXPECT_EQ(field(V, "id"), "last");
  EXPECT_EQ(field(V, "status"), "ok");
  EXPECT_EQ(Service->stats().Completed, 1u);
}

TEST_F(ServerTest, OversizedLineAnsweredWithErrorAndClosed) {
  // One byte past the cap with no newline: the server answers a
  // structured error and closes, instead of buffering without bound.
  std::string Huge(LineReader::MaxLineBytes + 1, 'x');
  std::thread Writer([&] { EXPECT_TRUE(sendAll(Fd, Huge)); });
  JsonValue V = nextResponse();
  Writer.join();
  EXPECT_EQ(field(V, "status"), "error");
  EXPECT_NE(field(V, "error").find("longer than 1048576 bytes"),
            std::string::npos)
      << field(V, "error");
  std::string Line;
  EXPECT_FALSE(Reader->readLine(&Line)) << "connection must close";
  EXPECT_EQ(Server->counters().ParseErrors, 1u);
}

TEST(LineReaderTest, LongLineAndSplitCrlfReadIntact) {
  // A ~1 MB line arrives in 4 KB writes; each chunk must be scanned once
  // (a rescan of the whole unread buffer per chunk is quadratic). Then a
  // CRLF line whose "\r" and "\n" arrive in separate writes.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Long(1 << 20, 'x');
  for (std::size_t I = 0; I < Long.size(); I += 997)
    Long[I] = static_cast<char>('a' + I % 26);
  std::thread Writer([&] {
    std::string Wire = Long + "\n";
    for (std::size_t I = 0; I < Wire.size(); I += 4096)
      ASSERT_TRUE(sendAll(Fds[1], Wire.substr(I, 4096)));
    ASSERT_TRUE(sendAll(Fds[1], "split\r"));
    // Let the reader drain the first half before the rest arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(sendAll(Fds[1], "\nlast"));
    ::shutdown(Fds[1], SHUT_WR);
  });
  LineReader Reader(Fds[0]);
  std::string Line;
  ASSERT_TRUE(Reader.readLine(&Line));
  EXPECT_EQ(Line.size(), Long.size());
  EXPECT_TRUE(Line == Long) << "long line corrupted";
  ASSERT_TRUE(Reader.readLine(&Line));
  EXPECT_EQ(Line, "split");
  ASSERT_TRUE(Reader.readLine(&Line));
  EXPECT_EQ(Line, "last");
  EXPECT_FALSE(Reader.readLine(&Line));
  Writer.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(SocketServer, RefusesAlreadyBoundPort) {
  SimService Service({1, 4, 0});
  SocketServer First(Service, {"127.0.0.1", 0});
  std::string Err;
  ASSERT_TRUE(First.start(&Err)) << Err;

  SocketServer Second(Service, {"127.0.0.1", First.port()});
  EXPECT_FALSE(Second.start(&Err));
  EXPECT_NE(Err.find("already in use"), std::string::npos) << Err;
  EXPECT_NE(Err.find(std::to_string(First.port())), std::string::npos) << Err;
}

TEST(SocketServer, StopBeforeAnyConnectionIsClean) {
  SimService Service({1, 4, 0});
  SocketServer Server(Service, {"127.0.0.1", 0});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread T([&Server] { Server.run(); });
  Server.requestStop();
  T.join();
  EXPECT_EQ(Server.counters().Connections, 0u);
}

} // namespace
