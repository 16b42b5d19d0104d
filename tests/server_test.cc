// The network subsystem: wire-protocol round trips and malformed-frame
// handling (protocol.h), request dispatch over a real loopback TCP
// server (server.h + service.h + client.h), and the server's edge cases
// — oversized frames, truncated frames, clients vanishing mid-run, and
// graceful shutdown cancelling in-flight runs through
// RunOptions::cancel.
//
// ServerConcurrencyTest races N client threads against a writer, which
// also puts the whole stack under the TSan CI job's *Concurrency*
// filter. Byte-level semantics (server output vs in-process Session::Run
// across epochs and compaction) live in the loopback differential in
// differential_test.cc.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/storage/wal.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

using protocol::MsgType;

// --- Protocol round trips -----------------------------------------------------

// Strips the u32 length prefix an encoder prepended.
std::string Payload(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return frame.substr(4);
}

TEST(ProtocolTest, RequestRoundTrips) {
  protocol::RunRequest run;
  run.program = "S($x) <- R($x).";
  run.source_name = "q.sdl";
  run.output_rel = "S";
  run.collect_derived_stats = false;
  Result<protocol::Request> decoded =
      protocol::DecodeRequest(Payload(protocol::EncodeRunRequest(run)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MsgType::kRun);
  EXPECT_EQ(decoded->run.program, run.program);
  EXPECT_EQ(decoded->run.source_name, run.source_name);
  EXPECT_EQ(decoded->run.output_rel, run.output_rel);
  EXPECT_FALSE(decoded->run.collect_derived_stats);

  protocol::CompileRequest compile;
  compile.program = "T() <- R(a).";
  compile.source_name = "c.sdl";
  decoded = protocol::DecodeRequest(
      Payload(protocol::EncodeCompileRequest(compile)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kCompile);
  EXPECT_EQ(decoded->compile.program, compile.program);

  protocol::AppendRequest append;
  append.facts = "R(b).";
  append.source_name = "facts.sdl";
  decoded = protocol::DecodeRequest(
      Payload(protocol::EncodeAppendRequest(append)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kAppend);
  EXPECT_EQ(decoded->append.facts, append.facts);
  EXPECT_EQ(decoded->append.source_name, append.source_name);

  protocol::RetractRequest retract;
  retract.facts = "R(b). R(c).";
  retract.source_name = "victims.sdl";
  decoded = protocol::DecodeRequest(
      Payload(protocol::EncodeRetractRequest(retract)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kRetract);
  EXPECT_EQ(decoded->retract.facts, retract.facts);
  EXPECT_EQ(decoded->retract.source_name, retract.source_name);

  for (MsgType t : {MsgType::kEpoch, MsgType::kCompact, MsgType::kStats,
                    MsgType::kShutdown}) {
    decoded = protocol::DecodeRequest(Payload(protocol::EncodeBareRequest(t)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, t);
  }
}

// Encoders write a frame in place and fill its length prefix in last: the
// prefix must be the payload's length, and the bytes those of the wire
// format.
TEST(ProtocolTest, FramesCarryTheirPayloadLength) {
  protocol::RunReply run;
  run.epoch = 3;
  run.rendered = std::string(70000, 'x');
  protocol::CompileReply compile;
  compile.features = "packing";
  protocol::WireDiagnostic d;
  d.code = "SD101";
  d.message = "unused";
  d.notes = {"a note", ""};
  compile.diagnostics = {d, d};
  protocol::StatsReply stats;
  stats.rendered = "universe  paths=1 atoms=0\n";
  protocol::RunRequest run_req;
  run_req.program = "S($x) <- R($x).";
  run_req.output_rel = "S";
  const std::vector<std::string> frames = {
      protocol::EncodeRunReply(run),
      protocol::EncodeCompileReply(compile),
      protocol::EncodeStatsReply(stats),
      protocol::EncodeErrorReply(MsgType::kRun,
                                 Status::NotFound("unknown relation Q")),
      protocol::EncodeAppendReply({}),
      protocol::EncodeRetractReply({}),
      protocol::EncodeEpochReply({}),
      protocol::EncodeCompactReply({}),
      protocol::EncodeShutdownReply(),
      protocol::EncodeHelloReply({}),
      protocol::EncodeRunRequest(run_req),
      protocol::EncodeCompileRequest({"T <- R(a).", "c.sdl"}),
      protocol::EncodeAppendRequest({"R(b).", ""}),
      protocol::EncodeRetractRequest({"R(b).", "v.sdl"}),
      protocol::EncodeHelloRequest({}),
      protocol::EncodeBareRequest(MsgType::kStats)};
  for (const std::string& f : frames) {
    ASSERT_GE(f.size(), 4u);
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(f[i])) << (8 * i);
    }
    EXPECT_EQ(len, f.size() - 4);
  }
  EXPECT_EQ(protocol::EncodeBareRequest(MsgType::kEpoch),
            std::string("\x01\x00\x00\x00\x04", 5));
  // Reply, orig type kShutdown, status code 0, empty message.
  EXPECT_EQ(protocol::EncodeShutdownReply(),
            std::string("\x0a\x00\x00\x00\x80\x07\x00\x00\x00\x00"
                        "\x00\x00\x00\x00",
                        14));
}

TEST(ProtocolTest, ReplyRoundTrips) {
  protocol::RunReply run;
  run.epoch = 3;
  run.segments = 2;
  run.rendered = "S(a).\nS(b).\n";
  run.stats.derived_facts = 2;
  run.stats.rounds = 4;
  run.stats.index_probes = 7;
  run.stats.run_seconds = 0.125;
  Result<protocol::Reply> decoded =
      protocol::DecodeReply(Payload(protocol::EncodeRunReply(run)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->orig_type, MsgType::kRun);
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->run.epoch, 3u);
  EXPECT_EQ(decoded->run.segments, 2u);
  EXPECT_EQ(decoded->run.rendered, run.rendered);
  EXPECT_EQ(decoded->run.stats.derived_facts, 2u);
  EXPECT_EQ(decoded->run.stats.rounds, 4u);
  EXPECT_EQ(decoded->run.stats.index_probes, 7u);
  EXPECT_DOUBLE_EQ(decoded->run.stats.run_seconds, 0.125);

  protocol::CompileReply compile;
  compile.cache_hit = true;
  compile.rules = 5;
  compile.strata = 2;
  compile.compile_seconds = 0.5;
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeCompileReply(compile)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->compile.cache_hit);
  EXPECT_EQ(decoded->compile.rules, 5u);
  EXPECT_EQ(decoded->compile.strata, 2u);

  protocol::AppendReply append;
  append.appended = 9;
  append.db = {4, 3, 100};
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeAppendReply(append)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->append.appended, 9u);
  EXPECT_EQ(decoded->append.db.epoch, 4u);
  EXPECT_EQ(decoded->append.db.segments, 3u);
  EXPECT_EQ(decoded->append.db.facts, 100u);

  protocol::RetractReply retract;
  retract.retracted = 6;
  retract.db = {5, 4, 94};
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeRetractReply(retract)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orig_type, MsgType::kRetract);
  EXPECT_EQ(decoded->retract.retracted, 6u);
  EXPECT_EQ(decoded->retract.db.epoch, 5u);
  EXPECT_EQ(decoded->retract.db.segments, 4u);
  EXPECT_EQ(decoded->retract.db.facts, 94u);

  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeEpochReply({7, 2, 42})));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->info.epoch, 7u);

  protocol::CompactReply compact;
  compact.folded = true;
  compact.db = {7, 1, 42};
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeCompactReply(compact)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->compact.folded);

  protocol::StatsReply stats;
  stats.rendered = "R  col 0  whole  buckets=1\n";
  decoded = protocol::DecodeReply(Payload(protocol::EncodeStatsReply(stats)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stats.rendered, stats.rendered);

  decoded = protocol::DecodeReply(Payload(protocol::EncodeShutdownReply()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orig_type, MsgType::kShutdown);
}

TEST(ProtocolTest, ErrorReplyCarriesStatusAndNoBody) {
  std::string frame = protocol::EncodeErrorReply(
      MsgType::kRun, Status::InvalidArgument("q.sdl:3:7: expected ')'"));
  Result<protocol::Reply> decoded = protocol::DecodeReply(Payload(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orig_type, MsgType::kRun);
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded->status.message(), "q.sdl:3:7: expected ')'");
}

TEST(ProtocolTest, TruncatedPayloadsAreRejectedAtEveryLength) {
  protocol::RunRequest run;
  run.program = "S($x) <- R($x).";
  run.source_name = "q.sdl";
  run.output_rel = "S";
  std::string payload = Payload(protocol::EncodeRunRequest(run));
  // Every strict prefix must fail decoding — never crash, never
  // misparse. (The frame layer reports mid-frame EOF separately.)
  for (size_t len = 0; len < payload.size(); ++len) {
    Result<protocol::Request> decoded =
        protocol::DecodeRequest(payload.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, TruncatedRepliesAreRejectedAtEveryLength) {
  protocol::CompileReply compile;
  compile.rules = 2;
  compile.features = "{A,R}";
  compile.fragment_class = "{R}";
  protocol::WireDiagnostic lint;
  lint.severity = 1;
  lint.code = "SD101";
  lint.line = 2;
  lint.col = 1;
  lint.message = "duplicate rule";
  lint.notes = {"first defined at 1:1"};
  compile.diagnostics = {lint};
  protocol::RunReply run;
  run.epoch = 3;
  run.rendered = "S(a).\n";
  run.stats.derived_facts = 1;
  protocol::CompactReply compact;
  compact.folded = true;
  compact.db = {7, 1, 42};
  protocol::StatsReply stats;
  stats.rendered = "R  tuples=1\n";
  stats.cache_hits = 5;
  const std::string frames[] = {
      protocol::EncodeCompileReply(compile),
      protocol::EncodeRunReply(run),
      protocol::EncodeAppendReply({9, {4, 3, 100}}),
      protocol::EncodeRetractReply({6, {5, 4, 94}}),
      protocol::EncodeEpochReply({7, 2, 42, 1024, 64, 3}),
      protocol::EncodeCompactReply(compact),
      protocol::EncodeStatsReply(stats),
      protocol::EncodeShutdownReply(),
      protocol::EncodeHelloReply({protocol::kWireVersion}),
      protocol::EncodeErrorReply(MsgType::kRun,
                                 Status::InvalidArgument("q.sdl:1:1: bad")),
  };
  for (const std::string& frame : frames) {
    std::string payload = Payload(frame);
    ASSERT_TRUE(protocol::DecodeReply(payload).ok());
    for (size_t len = 0; len < payload.size(); ++len) {
      Result<protocol::Reply> decoded =
          protocol::DecodeReply(payload.substr(0, len));
      ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(decoded.status().message().find("truncated frame"),
                std::string::npos)
          << decoded.status().message();
    }
  }
}

TEST(ProtocolTest, TrailingBytesAreMalformed) {
  std::string payload =
      Payload(protocol::EncodeBareRequest(MsgType::kEpoch)) + "x";
  Result<protocol::Request> decoded = protocol::DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(ProtocolTest, UnknownRequestTypeIsRejected) {
  std::string payload(1, static_cast<char>(99));
  Result<protocol::Request> decoded = protocol::DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, WriteToStalledPeerExceedsSendDeadline) {
  // A peer that stops reading fills the socket buffers. With an
  // SO_SNDTIMEO armed (a client with io_timeout_ms arms one), the write
  // gives up as a deadline, not as a broken stream.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  struct timeval timeout = {0, 100 * 1000};
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  std::string frame(size_t{8} << 20, 'x');
  Status wrote = protocol::WriteFrame(fds[0], frame);
  EXPECT_EQ(wrote.code(), StatusCode::kDeadlineExceeded) << wrote.ToString();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, AnnotateParseErrorFormatsFileLineColumn) {
  Status parse = Status::InvalidArgument("parse error at 3:7: expected ')'");
  Status annotated = protocol::AnnotateParseError("facts.sdl", parse);
  EXPECT_EQ(annotated.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(annotated.message(), "facts.sdl:3:7: expected ')'");

  // Non-positional errors get a plain file prefix.
  Status other = Status::InvalidArgument("relation R used with arity 2");
  EXPECT_EQ(protocol::AnnotateParseError("facts.sdl", other).message(),
            "facts.sdl: relation R used with arity 2");

  // No source name / no error: unchanged.
  EXPECT_EQ(protocol::AnnotateParseError("", parse).message(),
            parse.message());
  EXPECT_TRUE(protocol::AnnotateParseError("facts.sdl", Status::OK()).ok());
}

// --- A live loopback server ---------------------------------------------------

constexpr char kReachProgram[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

/// "E(n0, n1). E(n1, n2). ..." — a chain whose reachability closure takes
/// ~`n` fixpoint rounds and derives ~n^2/2 facts: cheap to parse, slow
/// enough to be interrupted, deterministic to render.
std::string ChainEdb(size_t n, size_t start = 0) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += "E(n" + std::to_string(start + i) + ", n" +
           std::to_string(start + i + 1) + ").\n";
  }
  return out;
}

/// Universe + Database + DatabaseService + Server with matched
/// lifetimes, torn down in the right order.
struct TestServer {
  std::unique_ptr<Universe> u;
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<Server> server;

  static TestServer Start(const std::string& edb_text,
                          ServiceOptions sopts = {},
                          ServerOptions opts = {}) {
    TestServer t;
    t.u = std::make_unique<Universe>();
    Result<Instance> edb = ParseInstance(*t.u, edb_text);
    EXPECT_TRUE(edb.ok()) << edb.status().ToString();
    Result<Database> db = Database::Open(*t.u, std::move(*edb));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    t.service = std::make_unique<DatabaseService>(*t.u, std::move(*db),
                                                  std::move(sopts));
    Result<std::unique_ptr<Server>> server = Server::Start(*t.service, opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    t.server = std::move(*server);
    return t;
  }

  Result<Client> Connect() {
    return Client::Connect("127.0.0.1", server->port());
  }
};

TEST(ServerTest, FullRequestFlow) {
  TestServer t = TestServer::Start("E(a, b). E(b, c).");
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // compile: miss, then hit (the cache is keyed by program text, so a
  // second connection sending identical text also hits).
  Result<protocol::CompileReply> compiled =
      client->Compile(kReachProgram, "reach.sdl");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(compiled->cache_hit);
  EXPECT_EQ(compiled->rules, 2u);
  EXPECT_EQ(compiled->strata, 1u);
  compiled = client->Compile(kReachProgram, "reach.sdl");
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->cache_hit);
  EXPECT_EQ(t.service->NumCachedPrograms(), 1u);

  // run: rendered derived facts, pinned at epoch 0.
  Result<protocol::RunReply> run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->epoch, 0u);
  EXPECT_FALSE(run->result_cached);
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");
  EXPECT_EQ(run->stats.derived_facts, 3u);

  // The identical query at the unchanged epoch is a result-cache hit —
  // same bytes, no evaluation.
  run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");

  // run with projection: a distinct cache key, evaluated on first use.
  run = client->Run(kReachProgram, "R");
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->result_cached);
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");
  EXPECT_EQ(t.service->NumCachedResults(), 2u);

  // append: a new epoch, visible to later runs. The append refreshed the
  // cached view and patched its renderings, so the run at the new epoch
  // is a result-cache hit.
  Result<protocol::AppendReply> appended = client->Append("E(c, d).");
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended, 1u);
  EXPECT_EQ(appended->db.epoch, 1u);
  EXPECT_EQ(appended->db.segments, 2u);
  run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->rendered,
            "R(a, b).\nR(a, c).\nR(a, d).\nR(b, c).\nR(b, d).\nR(c, d).\n");
  // The append delta-refreshed the maintained view instead of re-running
  // the fixpoint: only the 3 tuples reachable through the new edge were
  // derived (a cold run would derive all 6).
  EXPECT_EQ(run->stats.derived_facts, 3u);

  // epoch / compact / stats.
  Result<protocol::DbInfo> info = client->Epoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->facts, 3u);
  Result<protocol::CompactReply> compacted = client->Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(compacted->folded);
  EXPECT_EQ(compacted->db.segments, 1u);
  EXPECT_EQ(compacted->db.epoch, 1u);
  // Compaction keeps the epoch (same facts), so cached results stay
  // valid and correct (stats replay those of the delta refresh that
  // brought the entry to this epoch).
  run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->stats.derived_facts, 3u);
  Result<protocol::StatsReply> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->rendered.find("E"), std::string::npos);

  // shutdown: acknowledged, then the server drains.
  EXPECT_TRUE(client->Shutdown().ok());
  t.server->Wait();
  EXPECT_GE(t.server->requests_served(), 9u);
}

TEST(ServerTest, ServerSideErrorsComeBackStructured) {
  TestServer t = TestServer::Start("E(a, b).");
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());

  // A parse error in shipped program text points at the client's file.
  Result<protocol::RunReply> run =
      client->Run("R($x <- E($x).", "", "bad.sdl");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(run.status().message().rfind("bad.sdl:1:", 0), 0u)
      << run.status().message();

  // Same for malformed appended facts.
  Result<protocol::AppendReply> appended =
      client->Append("E(a b).", "facts.sdl");
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.status().message().rfind("facts.sdl:1:", 0), 0u)
      << appended.status().message();

  // Unknown output relation: a clean error reply, not a dropped
  // connection — the same client keeps working.
  run = client->Run(kReachProgram, "NoSuchRel");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
  Result<protocol::DbInfo> info = client->Epoch();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

TEST(ServerTest, DeeplyNestedPacksGetErrorReplies) {
  // Nesting this deep used to overflow a worker's stack and kill the
  // server; the parser caps it, so each request gets an error reply.
  TestServer t = TestServer::Start("E(a, b).");
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());
  auto nested = [](size_t depth) {
    return std::string(depth, '<') + "a" + std::string(depth, '>');
  };
  Result<protocol::AppendReply> appended =
      client->Append("R(" + nested(20000) + ").", "deep.sdl");
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(appended.status().message().find("limit of 1000"),
            std::string::npos)
      << appended.status().message();

  Result<protocol::RunReply> run =
      client->Run("S(" + nested(100000) + ") <- E($x, $y).", "", "deep.sdl");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("limit of 1000"), std::string::npos)
      << run.status().message();

  // The server is still serving, on the same connection.
  run = client->Run(kReachProgram, "R");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, "R(a, b).\n");
}

TEST(ServerTest, OversizedFrameIsRejectedWithErrorReply) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  TestServer t = TestServer::Start("E(a, b).", {}, opts);
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());

  // Declare a 1 MiB frame against the 1 KiB limit: header only, the
  // server must reject on the declared length without reading further.
  std::string header = {'\0', '\0', '\x10', '\0'};  // u32le 0x100000
  ASSERT_TRUE(protocol::WriteFrame(client->fd(), header).ok());
  protocol::FrameReader reader(client->fd(), protocol::kDefaultMaxFrameBytes);
  Result<std::string> payload = reader.Next(nullptr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<protocol::Reply> reply = protocol::DecodeReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(reply->status.message().find("oversized frame"),
            std::string::npos);
  // ... and the connection is closed behind the reply.
  Result<std::string> next = reader.Next(nullptr);
  EXPECT_FALSE(next.ok());

  // The server itself is unharmed.
  Result<Client> fresh = t.Connect();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Epoch().ok());
}

TEST(ServerTest, TruncatedFrameDropsConnectionOnly) {
  TestServer t = TestServer::Start("E(a, b).");
  {
    Result<Client> client = t.Connect();
    ASSERT_TRUE(client.ok());
    // Declare 100 payload bytes, deliver 10, vanish.
    std::string partial = {'\x64', '\0', '\0', '\0'};
    partial += "0123456789";
    ASSERT_TRUE(protocol::WriteFrame(client->fd(), partial).ok());
    client->Close();
  }
  // The worker saw a truncated frame and dropped that connection; the
  // server keeps serving.
  Result<Client> fresh = t.Connect();
  ASSERT_TRUE(fresh.ok());
  Result<protocol::DbInfo> info = fresh->Epoch();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->facts, 1u);
}

TEST(ServerTest, ClientDisconnectMidRunLeavesServerHealthy) {
  TestServer t = TestServer::Start(ChainEdb(200));
  {
    Result<Client> client = t.Connect();
    ASSERT_TRUE(client.ok());
    // Fire a ~200-round run and hang up without reading the reply: the
    // worker's reply write fails (MSG_NOSIGNAL, no SIGPIPE) and the
    // connection is reaped.
    protocol::RunRequest req;
    req.program = kReachProgram;
    ASSERT_TRUE(
        protocol::WriteFrame(client->fd(), protocol::EncodeRunRequest(req))
            .ok());
    client->Close();
  }
  // The server survives and still answers — including the same query.
  Result<Client> fresh = t.Connect();
  ASSERT_TRUE(fresh.ok());
  Result<protocol::RunReply> run = fresh->Run(kReachProgram);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.derived_facts, 200u * 201u / 2u);
}

TEST(ServerTest, ShutdownCancelsInFlightRuns) {
  // A long chain: thousands of fixpoint rounds, far longer than the
  // shutdown below. RunOptions::cancel is polled every round, so the
  // drain interrupts the run near-instantly instead of waiting it out.
  TestServer t = TestServer::Start(ChainEdb(1500));
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());
  protocol::RunRequest req;
  req.program = kReachProgram;
  ASSERT_TRUE(
      protocol::WriteFrame(client->fd(), protocol::EncodeRunRequest(req))
          .ok());
  // Give a worker time to pick the run up, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  t.server->Shutdown();

  // The client sees either a kCancelled error reply (run was in flight
  // when the drain started) or a closed connection (the run had not
  // started / the reply raced the close). Either way the drain already
  // finished — Shutdown() joined every thread without waiting out the
  // full fixpoint.
  Result<std::string> payload =
      protocol::FrameReader(client->fd(), protocol::kDefaultMaxFrameBytes)
          .Next(nullptr);
  if (payload.ok()) {
    Result<protocol::Reply> reply = protocol::DecodeReply(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status.code(), StatusCode::kCancelled)
        << reply->status.ToString();
  }
  EXPECT_TRUE(t.server->ShuttingDown());
}

TEST(ServerTest, QueuedConnectionsAreDroppedOnShutdown) {
  // One worker, held busy by a slow run; further connections queue and
  // must be closed (not served, not leaked) by the drain.
  ServerOptions opts;
  opts.threads = 1;
  TestServer t = TestServer::Start(ChainEdb(1200), {}, opts);
  Result<Client> busy = t.Connect();
  ASSERT_TRUE(busy.ok());
  protocol::RunRequest req;
  req.program = kReachProgram;
  ASSERT_TRUE(
      protocol::WriteFrame(busy->fd(), protocol::EncodeRunRequest(req)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Result<Client> queued = t.Connect();
  ASSERT_TRUE(queued.ok());
  t.server->Shutdown();
  // The queued connection was closed without a reply.
  Result<std::string> payload =
      protocol::FrameReader(queued->fd(), protocol::kDefaultMaxFrameBytes)
          .Next(nullptr);
  EXPECT_FALSE(payload.ok());
}

// --- Concurrency (runs under the TSan CI job's *Concurrency* filter) ---------

TEST(ServerConcurrencyTest, ClientsRaceRunsAppendsAndCompaction) {
  // Expected derived rendering per epoch, computed in-process on an
  // independent Universe.
  const std::string batch0 = "E(a, b). E(b, c).";
  const std::string batch1 = "E(c, d).";
  const std::string batch2 = "E(d, e).";
  std::vector<std::string> expected;
  {
    Universe u;
    Result<Program> p = ParseProgram(u, kReachProgram);
    ASSERT_TRUE(p.ok());
    Result<PreparedProgram> prog = Engine::Compile(u, std::move(*p));
    ASSERT_TRUE(prog.ok());
    Instance acc;
    for (const std::string& batch : {batch0, batch1, batch2}) {
      Result<Instance> delta = ParseInstance(u, batch);
      ASSERT_TRUE(delta.ok());
      acc.UnionWith(std::move(*delta));
      Result<Database> db = Database::Open(u, acc);
      ASSERT_TRUE(db.ok());
      Result<Instance> derived = db->Snapshot().Run(*prog);
      ASSERT_TRUE(derived.ok());
      expected.push_back(derived->ToString(u));
    }
  }

  ServerOptions opts;
  opts.threads = 8;
  // Cache off: every run must actually race the engine (snapshot pins,
  // index call_onces, stats accumulator), not the result cache.
  ServiceOptions sopts;
  sopts.result_cache_entries = 0;
  TestServer t = TestServer::Start(batch0, sopts, opts);

  constexpr size_t kThreads = 8;
  constexpr size_t kRunsPerThread = 12;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    clients.emplace_back([&, i] {
      Result<Client> client =
          Client::Connect("127.0.0.1", t.server->port());
      if (!client.ok()) {
        failures[i] = client.status().ToString();
        return;
      }
      for (size_t r = 0; r < kRunsPerThread; ++r) {
        Result<protocol::RunReply> run = client->Run(kReachProgram);
        if (!run.ok()) {
          failures[i] = run.status().ToString();
          return;
        }
        // Every reply must be internally consistent: the rendering of
        // exactly the epoch the run was pinned to, regardless of how
        // appends and compactions interleaved.
        if (run->epoch >= expected.size() ||
            run->rendered != expected[run->epoch]) {
          failures[i] = "epoch " + std::to_string(run->epoch) +
                        " rendered unexpectedly:\n" + run->rendered;
          return;
        }
      }
    });
  }

  // Writer thread: two appends and a compaction race the readers.
  std::thread writer([&] {
    Result<Client> client = Client::Connect("127.0.0.1", t.server->port());
    ASSERT_TRUE(client.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(client->Append(batch1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(client->Compact().ok());
    ASSERT_TRUE(client->Append(batch2).ok());
  });

  for (std::thread& c : clients) c.join();
  writer.join();
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(failures[i], "") << "client thread " << i;
  }
  Result<Client> check = t.Connect();
  ASSERT_TRUE(check.ok());
  Result<protocol::DbInfo> info = check->Epoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_EQ(info->facts, 4u);
}

TEST(ServerConcurrencyTest, CompileStampedeSharesOneCacheEntry) {
  ServerOptions opts;
  opts.threads = 8;
  TestServer t = TestServer::Start("E(a, b).", {}, opts);
  constexpr size_t kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Result<Client> client =
          Client::Connect("127.0.0.1", t.server->port());
      if (!client.ok()) {
        failures[i] = client.status().ToString();
        return;
      }
      Result<protocol::CompileReply> compiled =
          client->Compile(kReachProgram);
      if (!compiled.ok()) failures[i] = compiled.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(failures[i], "") << "client thread " << i;
  }
  // Races may compile redundantly, but the cache converges on one entry
  // per distinct program text.
  EXPECT_EQ(t.service->NumCachedPrograms(), 1u);
}

// --- Maintained-view cache: byte accounting, LRU eviction, counters ----------

constexpr char kProgA[] = "A($x, $y) <- E($x, $y).";
constexpr char kProgB[] = "B($x, $y) <- E($x, $y).";
constexpr char kProgC[] = "C($x, $y) <- E($x, $y).";

protocol::RunRequest ReqFor(const char* program) {
  protocol::RunRequest req;
  req.program = program;
  return req;
}

TEST(ServiceCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  // Any single entry busts the budget, so only the hottest entry (which
  // eviction never touches) survives each insert.
  sopts.cache_bytes = 1;
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  CacheCounters c = service.CacheStats();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_GT(c.bytes, sopts.cache_bytes);  // the survivor is over budget

  // A second program displaces the first: its bytes, its entry, and its
  // materialized view all go.
  ASSERT_TRUE(service.Run(ReqFor(kProgB)).ok());
  c = service.CacheStats();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(service.db().views().NumViews(), 1u);

  // Re-running the evicted program is a cold materialization again.
  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  EXPECT_EQ(service.db().views().counters().cold_runs, 3u);
}

TEST(ServiceCacheTest, EntryCapEvictsLeastRecentlyUsed) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.result_cache_entries = 2;
  sopts.cache_bytes = 0;  // unbounded: only the entry cap evicts
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  ASSERT_TRUE(service.Run(ReqFor(kProgB)).ok());
  EXPECT_EQ(service.CacheStats().entries, 2u);

  // Touch A so B becomes least recently used, then insert C: B goes.
  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  ASSERT_TRUE(service.Run(ReqFor(kProgC)).ok());
  CacheCounters c = service.CacheStats();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);

  run = service.Run(ReqFor(kProgA));  // still cached
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  run = service.Run(ReqFor(kProgB));  // was evicted: a fresh evaluation
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->result_cached);
  c = service.CacheStats();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.evictions, 2u);  // inserting B displaced another entry
}

TEST(ServiceCacheTest, AppendRefreshesViewsEagerly) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  DatabaseService service(u, std::move(*db), ServiceOptions());

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  EXPECT_EQ(service.db().views().counters().cold_runs, 1u);

  // The append itself delta-refreshes the stored view — before any query.
  protocol::AppendRequest append;
  append.facts = "E(c, d).";
  ASSERT_TRUE(service.Append(append).ok());
  ViewManager::Counters v = service.db().views().counters();
  EXPECT_EQ(v.cold_runs, 1u);
  EXPECT_EQ(v.delta_refreshes, 1u);

  // The append also patched the entry's rendering, so the next run is a
  // result-cache hit: it never asks the ViewManager for the view, and it
  // replays the delta refresh's stats.
  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->stats.derived_facts, 1u);  // only A(c, d) was new
  EXPECT_EQ(service.db().views().counters().hits, 0u);

  // And the rendering stays cached from here on.
  run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
}

TEST(ServiceCacheTest, RefreshOnAppendOffDefersToNextRun) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.refresh_on_append = false;
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  protocol::AppendRequest append;
  append.facts = "E(b, c).";
  ASSERT_TRUE(service.Append(append).ok());
  EXPECT_EQ(service.db().views().counters().delta_refreshes, 0u);

  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_EQ(service.db().views().counters().delta_refreshes, 1u);
}

TEST(ServiceCacheTest, CountersTravelInStatsReplies) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  DatabaseService service(u, std::move(*db), ServiceOptions());

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());  // hit
  protocol::StatsReply stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GT(stats.cache_bytes, 0u);
  EXPECT_EQ(stats.view_cold_runs, 1u);
  // The rendered text closes with the size of the Universe's stores.
  std::string universe_line = "universe  paths=" +
                              std::to_string(u.num_paths()) + " atoms=" +
                              std::to_string(u.num_atoms()) + "\n";
  ASSERT_GE(stats.rendered.size(), universe_line.size());
  EXPECT_EQ(stats.rendered.substr(stats.rendered.size() - universe_line.size()),
            universe_line);

  // And they survive the wire: encode → decode is lossless.
  Result<protocol::Reply> decoded = protocol::DecodeReply(
      Payload(protocol::EncodeStatsReply(stats)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.rendered, stats.rendered);
  EXPECT_EQ(decoded->stats.cache_hits, stats.cache_hits);
  EXPECT_EQ(decoded->stats.cache_misses, stats.cache_misses);
  EXPECT_EQ(decoded->stats.cache_evictions, stats.cache_evictions);
  EXPECT_EQ(decoded->stats.cache_entries, stats.cache_entries);
  EXPECT_EQ(decoded->stats.cache_bytes, stats.cache_bytes);
  EXPECT_EQ(decoded->stats.view_hits, stats.view_hits);
  EXPECT_EQ(decoded->stats.view_cold_runs, stats.view_cold_runs);
  EXPECT_EQ(decoded->stats.view_delta_refreshes,
            stats.view_delta_refreshes);
  EXPECT_EQ(decoded->stats.view_dred_refreshes,
            stats.view_dred_refreshes);
  EXPECT_EQ(decoded->stats.view_strata_recomputed,
            stats.view_strata_recomputed);
}

// Serving a stream of never-seen keyed programs over a fixed EDB must not
// grow the Universe: the path store never shrinks, so every path a fresh
// program's evaluation interned would stay for the server's lifetime. The
// answers are paths the EDB already holds, and a candidate split of `$s`
// that fails is never interned.
TEST(ServiceCacheTest, FreshProgramsDoNotGrowTheUniverse) {
  constexpr size_t kKeys = 100;
  Universe u;
  std::string edb;
  for (size_t k = 0; k < kKeys; ++k) {
    for (size_t f = 0; f < 2; ++f) {
      edb += "R(k" + std::to_string(k) + ", ";
      for (size_t i = 0; i < 24; ++i) {
        if (i > 0) edb += " ++ ";
        edb += "acgt"[(k * 7 + f * 5 + i * i) % 4];
      }
      edb += ").\n";
    }
  }
  Result<Instance> inst = ParseInstance(u, edb);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  Result<Database> db = Database::Open(u, std::move(*inst));
  ASSERT_TRUE(db.ok());
  DatabaseService service(u, std::move(*db), ServiceOptions());

  size_t paths = u.num_paths();
  for (size_t k = 0; k < kKeys; ++k) {
    std::string program = "Q($s) <- R(k" + std::to_string(k) + ", $s).";
    Result<protocol::RunReply> run = service.Run(ReqFor(program.c_str()));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(run->result_cached);
    EXPECT_NE(run->rendered.find("Q("), std::string::npos);
  }
  EXPECT_EQ(u.num_paths(), paths);
}

// Statistics measure the stored facts only: a program's derived
// relations belong to that program, so running programs leaves no
// statistics row behind, whatever their head names.
TEST(ServiceCacheTest, StatsKeepNoRowsForProgramsThatRan) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.result_cache_entries = 4;
  DatabaseService service(u, std::move(*db), sopts);
  auto rows = [&service] {
    std::string rendered = service.Stats().rendered;
    return rendered.substr(0, rendered.find("universe  "));
  };
  const Session pinned = service.db().Snapshot();
  const std::string rows_before = rows();
  const std::string pinned_before = pinned.Stats().ToString(u);
  ASSERT_NE(rows_before.find("E  tuples=2"), std::string::npos);

  for (size_t i = 0; i < 20; ++i) {
    std::string program = Numbered("H", i) + "($x) <- E($x, $y).";
    Result<protocol::RunReply> run = service.Run(ReqFor(program.c_str()));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  EXPECT_EQ(rows(), rows_before);
  EXPECT_EQ(pinned.Stats().ToString(u), pinned_before);
  EXPECT_EQ(service.db().Snapshot().Stats().ToString(u), pinned_before);
}

TEST(ServiceCacheTest, RetractRefreshesViewsThroughDRed) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  // Admission analysis runs on the eager-refresh path too; kProgA is
  // non-generative, so the budget must not clamp its DRed refresh.
  sopts.admission = AdmissionPolicy::kBudget;
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  EXPECT_EQ(service.db().views().counters().cold_runs, 1u);

  // The retract eagerly advances the stored view like an append — but
  // through the DRed path, never the append-only delta path: the cached
  // rendering at the shrink epoch must not contain the dead tuple.
  protocol::RetractRequest retract;
  retract.facts = "E(b, c).";
  Result<protocol::RetractReply> rr = service.Retract(retract);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->retracted, 1u);
  EXPECT_EQ(rr->db.epoch, 1u);
  ViewManager::Counters v = service.db().views().counters();
  EXPECT_EQ(v.cold_runs, 1u);
  EXPECT_EQ(v.delta_refreshes, 1u);
  EXPECT_EQ(v.dred_refreshes, 1u);

  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_EQ(run->rendered, "A(a, b).\n");

  // And the post-retraction rendering is cached from here on.
  run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->rendered, "A(a, b).\n");

  // Retracting facts nobody has is a no-op end to end: no epoch bump,
  // no refresh work.
  retract.facts = "E(z, z).";
  rr = service.Retract(retract);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->retracted, 0u);
  EXPECT_EQ(rr->db.epoch, 1u);
  EXPECT_EQ(service.db().views().counters().dred_refreshes, 1u);
}


// An automatic fold lands inside the write, before the eager refresh, so
// the cached view is one epoch behind it. Folding the segment that view
// has not seen together with the ones it has, and delta-evaluating the
// merged result, would count P(a)'s support twice (2 -> 4): retracting
// both R(a, _) facts would leave it at 2 and P(a) would still be served.
TEST(ServiceCacheTest, AutoCompactionKeepsEagerViewsExact) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "R(a, x).");
  ASSERT_TRUE(edb.ok());
  Database::OpenOptions opts;
  opts.auto_compact_segments = 2;
  Result<Database> db = Database::Open(u, std::move(*edb), opts);
  ASSERT_TRUE(db.ok());
  DatabaseService service(u, std::move(*db), ServiceOptions());
  constexpr char kProg[] = "P($k) <- R($k, $v).";

  Result<protocol::RunReply> run = service.Run(ReqFor(kProg));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, "P(a).\n");
  protocol::AppendRequest append;
  append.facts = "R(a, y).";
  ASSERT_TRUE(service.Append(append).ok());
  // The third segment trips the limit: this append folds.
  append.facts = "R(b, x).";
  Result<protocol::AppendReply> folded = service.Append(append);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_LE(folded->db.segments, 2u);
  protocol::RetractRequest retract;
  retract.facts = "R(a, x). R(a, y).";
  Result<protocol::RetractReply> rr = service.Retract(retract);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->retracted, 2u);

  run = service.Run(ReqFor(kProg));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, "P(b).\n");
  // The view was maintained throughout: one cold run, the first.
  EXPECT_EQ(service.db().views().counters().cold_runs, 1u);
}

// Compiled programs live in the entries of the one serving cache, so its
// entry cap bounds them too: a stream of never-seen programs keeps at
// most result_cache_entries plans, views and statistics snapshots, not
// one per text ever sent.
TEST(ServiceCacheTest, ProgramsShareTheResultCap) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.result_cache_entries = 64;
  DatabaseService service(u, std::move(*db), sopts);
  size_t sent = 0;
  auto run_fresh = [&](size_t n) {
    for (size_t i = 0; i < n; ++i, ++sent) {
      std::string program = Numbered("H", sent) + "($x, c" +
                            std::to_string(sent) + ") <- E($x, $y).";
      Result<protocol::RunReply> run = service.Run(ReqFor(program.c_str()));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    }
  };

  run_fresh(1000);
  EXPECT_EQ(service.NumCachedPrograms(), service.CacheStats().entries);
  EXPECT_LE(service.NumCachedPrograms(), 64u);
  EXPECT_LE(service.db().views().NumViews(), 64u);

  // A text sent only through Compile takes a slot and ages like any
  // other entry: a Compile hit makes it the most recently used, and 64
  // newer texts evict it.
  auto compile_hits = [&service] {
    Result<protocol::CompileReply> compiled =
        service.Compile({kProgA, "a.sdl"});
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return compiled.ok() && compiled->cache_hit;
  };
  EXPECT_FALSE(compile_hits());
  EXPECT_EQ(service.NumCachedPrograms(), 64u);
  run_fresh(63);
  EXPECT_TRUE(compile_hits());
  run_fresh(64);
  EXPECT_FALSE(compile_hits());
  EXPECT_EQ(service.NumCachedPrograms(), 64u);
  EXPECT_EQ(service.CacheStats().entries, 64u);
}

// A plan is ranked by the statistics of the relations its rule bodies
// read, so only their drift recompiles it. Facts of relations the
// program never reads leave its plan alone.
TEST(ServiceCacheTest, RecompileFollowsOnlyReadRelations) {
  Universe u;
  Result<Instance> edb =
      ParseInstance(u, "E(a, b). E(b, c). E(c, d). E(d, e).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  std::vector<std::string> logged;
  sopts.log = [&logged](const std::string& line) { logged.push_back(line); };
  DatabaseService service(u, std::move(*db), sopts);
  protocol::RunRequest req = ReqFor(kProgA);
  req.source_name = "reach.sdl";
  ASSERT_TRUE(service.Run(req).ok());

  protocol::AppendRequest append;
  for (int i = 0; i < 3; ++i) {
    append.facts = "F" + std::to_string(i) + "(a).";
    ASSERT_TRUE(service.Append(append).ok());
    ASSERT_TRUE(service.Run(req).ok());
  }
  EXPECT_TRUE(logged.empty());

  // E grows from 4 facts to 6: drift 2/6 >= the default 0.25. The write's
  // eager refresh recompiles, and its log line names the program.
  append.facts = "E(e, f). E(f, g).";
  ASSERT_TRUE(service.Append(append).ok());
  Result<protocol::RunReply> run = service.Run(req);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(run->rendered.find("A(f, g)."), std::string::npos);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].rfind("recompiled reach.sdl (stats drift ", 0), 0u)
      << logged[0];
}

// A write's eager refresh revalidates every cached program against one
// measurement of the stack, and each program still compares only the
// relations its bodies read against it.
TEST(ServiceCacheTest, OneWriteRevalidatesEveryCachedProgram) {
  Universe u;
  Result<Instance> edb =
      ParseInstance(u, "E(a, b). E(b, c). E(c, d). E(d, e). F(a).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  std::vector<std::string> logged;
  sopts.log = [&logged](const std::string& line) { logged.push_back(line); };
  DatabaseService service(u, std::move(*db), sopts);
  const std::vector<std::pair<const char*, const char*>> programs = {
      {kProgA, "a.sdl"},
      {kProgB, "b.sdl"},
      {kProgC, "c.sdl"},
      {"G($x) <- F($x).", "g.sdl"}};
  for (const auto& [text, name] : programs) {
    protocol::RunRequest req = ReqFor(text);
    req.source_name = name;
    ASSERT_TRUE(service.Run(req).ok());
  }

  // E grows from 4 facts to 6: drift 2/6 >= the default 0.25 for the
  // three programs that read E; F is unchanged.
  protocol::AppendRequest append;
  append.facts = "E(e, f). E(f, g).";
  ASSERT_TRUE(service.Append(append).ok());
  std::vector<std::string> recompiled;
  for (const std::string& line : logged) {
    recompiled.push_back(line.substr(0, line.find(" (")));
  }
  std::sort(recompiled.begin(), recompiled.end());
  EXPECT_EQ(recompiled,
            (std::vector<std::string>{"recompiled a.sdl", "recompiled b.sdl",
                                      "recompiled c.sdl"}));
  for (const auto& [text, name] : programs) {
    Result<protocol::RunReply> run = service.Run(ReqFor(text));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->result_cached) << name;
    EXPECT_EQ(run->epoch, 1u);
  }
}

// --- Serving cache under contention (TSan *Concurrency* filter) --------------

// Far more distinct programs than cache slots, so eviction (of compiled
// records and views alike) races runs, eager refreshes and writes. Every
// reply must still be the cold answer at its epoch, and the cap must
// hold for the entries and for the view manager's stored views.
TEST(ServiceCacheConcurrencyTest, EvictionRacesRunsAndWrites) {
  constexpr size_t kPrograms = 200;
  constexpr size_t kThreads = 8;
  constexpr size_t kWrites = 12;
  std::vector<std::string> programs;
  for (size_t i = 0; i < kPrograms; ++i) {
    std::string h = Numbered(i % 2 == 0 ? "H" : "R", i);
    programs.push_back(
        i % 2 == 0 ? h + "($x, c" + std::to_string(i) + ") <- E($x, $y)."
                   : h + "($x, $y) <- E($x, $y).\n" + h + "($x, $z) <- " +
                         h + "($x, $y), E($y, $z).");
  }
  // The writes: each appends a new edge or retracts the oldest live one,
  // so every write moves the epoch by exactly one.
  std::vector<std::string> live;
  for (size_t i = 0; i < 5; ++i) {
    live.push_back("E(n" + std::to_string(i) + ", n" +
                   std::to_string(i + 1) + ").");
  }
  std::vector<std::pair<bool, std::string>> writes;  // (append?, fact)
  std::vector<std::vector<std::string>> edbs = {live};
  for (size_t w = 0; w < kWrites; ++w) {
    if (w % 2 == 0) {
      writes.emplace_back(true, "E(n" + std::to_string(5 + w) + ", n" +
                                    std::to_string(6 + w) + ").");
      live.push_back(writes.back().second);
    } else {
      writes.emplace_back(false, live.front());
      live.erase(live.begin());
    }
    edbs.push_back(live);
  }
  auto join = [](const std::vector<std::string>& facts) {
    std::string out;
    for (const std::string& f : facts) out += f + "\n";
    return out;
  };
  // expected[epoch][program]: a cold Session::Run in its own Universe.
  std::vector<std::vector<std::string>> expected;
  {
    Universe ref;
    for (const std::vector<std::string>& facts : edbs) {
      Result<Instance> inst = ParseInstance(ref, join(facts));
      ASSERT_TRUE(inst.ok());
      Result<Database> db = Database::Open(ref, std::move(*inst));
      ASSERT_TRUE(db.ok());
      expected.emplace_back();
      for (const std::string& text : programs) {
        Result<Program> p = ParseProgram(ref, text);
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        Result<PreparedProgram> prog = Engine::Compile(ref, std::move(*p));
        ASSERT_TRUE(prog.ok());
        Result<Instance> derived = db->Snapshot().Run(*prog);
        ASSERT_TRUE(derived.ok());
        expected.back().push_back(derived->ToString(ref));
      }
    }
  }

  Universe u;
  Result<Instance> edb = ParseInstance(u, join(edbs[0]));
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.result_cache_entries = 16;
  DatabaseService service(u, std::move(*db), sopts);

  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      // Each thread walks every program twice from its own offset, so
      // the second pass finds some entries still cached.
      for (size_t k = 0; k < 2 * kPrograms; ++k) {
        size_t i = (t * kPrograms / kThreads + k) % kPrograms;
        Result<protocol::RunReply> run =
            service.Run(ReqFor(programs[i].c_str()));
        if (!run.ok()) {
          failures[t] = run.status().ToString();
          return;
        }
        if (run->epoch >= expected.size() ||
            run->rendered != expected[run->epoch][i]) {
          failures[t] = "program " + std::to_string(i) + " at epoch " +
                        std::to_string(run->epoch) + " rendered:\n" +
                        run->rendered;
          return;
        }
      }
    });
  }
  std::thread writer([&] {
    for (const auto& [is_append, fact] : writes) {
      if (is_append) {
        protocol::AppendRequest req;
        req.facts = fact;
        ASSERT_TRUE(service.Append(req).ok());
      } else {
        protocol::RetractRequest req;
        req.facts = fact;
        ASSERT_TRUE(service.Retract(req).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  for (std::thread& r : readers) r.join();
  writer.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "reader thread " << t;
  }
  EXPECT_EQ(service.db().epoch(), kWrites);
  CacheCounters c = service.CacheStats();
  EXPECT_LE(c.entries, 16u);
  EXPECT_EQ(service.NumCachedPrograms(), c.entries);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(service.db().views().NumViews(), 16u);
}

// The durable write path under contention: a service over a data
// directory (sync=always, a fold on every second segment) with
// durable_ingest's three programs cached, one writer alternating
// appends and retractions, each of which evaluates the cached views
// beside its WAL sync on the storage engine's helper thread and installs
// them after it publishes, and readers running every output meanwhile.
// Every reply must be the cold answer at the epoch it reports.
TEST(ServiceCacheConcurrencyTest, DurableWritesRaceCachedRuns) {
  constexpr size_t kThreads = 8;
  constexpr size_t kWrites = 16;
  const char* const kPrograms[] = {
      "Mark($k, $u ++ <a ++ c ++ g> ++ $v) <- Read($k, $u ++ a ++ c ++ g ++ "
      "$v).\nMarked($k) <- Mark($k, $p).\n",
      "HasRp($k, $v) <- Log($k, $u ++ co ++ $v), $v = $s ++ rp ++ $t.\n---\n"
      "Bad($k) <- Log($k, $x), $x = $u ++ co ++ $v, !HasRp($k, $v).\n---\n"
      "Good($k) <- Log($k, $x), !Bad($k).\n",
      "Reach(@x ++ @y) <- Link(@x ++ @y).\n"
      "Reach(@x ++ @z) <- Reach(@x ++ @y), Link(@y ++ @z).\n"
      "Cyclic(@x) <- Reach(@x ++ @x).\n",
  };
  const std::pair<int, const char*> kOutputs[] = {
      {0, "Mark"}, {0, "Marked"}, {1, "Good"},
      {1, "Bad"},  {2, "Reach"},  {2, "Cyclic"}};
  // Even writes append the next read, log and edge, odd ones retract the
  // oldest live ones: every write moves the epoch by one. Four live
  // edges close a cycle.
  const char* const kReads[] = {"a ++ c ++ g", "t ++ a ++ c ++ g ++ a",
                                "g ++ t", "c ++ a ++ c ++ g ++ t"};
  const char* const kLogs[] = {"co ++ x ++ rp", "co ++ y", "rp ++ co",
                               "co ++ rp ++ co"};
  auto batch = [&](size_t i) {
    std::string k = std::to_string(i);
    std::string out = "Read(r" + k + ", " + kReads[i % 4] + ").\n";
    out += "Log(c" + k + ", " + kLogs[i % 4] + ").\n";
    out += "Link(n" + std::to_string(i % 4) + " ++ n" +
           std::to_string((i + 1) % 4) + ").\n";
    return out;
  };
  std::vector<size_t> live = {0, 1, 2};
  std::vector<std::pair<bool, std::string>> writes;  // (append?, facts)
  std::vector<std::vector<size_t>> edbs = {live};
  for (size_t w = 0, next = live.size(); w < kWrites; ++w) {
    if (w % 2 == 0) {
      live.push_back(next);
      writes.emplace_back(true, batch(next++));
    } else {
      writes.emplace_back(false, batch(live.front()));
      live.erase(live.begin());
    }
    edbs.push_back(live);
  }
  auto edb_text = [&](const std::vector<size_t>& facts) {
    std::string out;
    for (size_t i : facts) out += batch(i);
    return out;
  };
  // expected[epoch][output]: a cold Session::Run in its own Universe.
  std::vector<std::vector<std::string>> expected;
  {
    Universe ref;
    std::vector<PreparedProgram> progs;
    for (const char* text : kPrograms) {
      Result<PreparedProgram> prog = Engine::Compile(ref, MustParse(ref, text));
      ASSERT_TRUE(prog.ok()) << prog.status().ToString();
      progs.push_back(std::move(prog).value());
    }
    for (const std::vector<size_t>& facts : edbs) {
      Result<Database> db =
          Database::Open(ref, MustInstance(ref, edb_text(facts)));
      ASSERT_TRUE(db.ok());
      expected.emplace_back();
      for (const auto& [p, out] : kOutputs) {
        Result<Instance> derived = db->Snapshot().Run(progs[p]);
        ASSERT_TRUE(derived.ok()) << derived.status().ToString();
        Result<std::string> text = RenderOutput(ref, *derived, out);
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        expected.back().push_back(*text);
      }
    }
  }

  ScratchDir dir("durable_race");
  Universe u;
  Database::OpenOptions opts;
  opts.data_dir = dir.path;
  opts.sync_mode = storage::SyncMode::kAlways;
  opts.auto_compact_segments = 2;
  Result<Database> db =
      Database::Open(u, MustInstance(u, edb_text(edbs[0])), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DatabaseService service(u, std::move(*db));
  auto request = [&](size_t i) {
    protocol::RunRequest req;
    req.program = kPrograms[kOutputs[i].first];
    req.output_rel = kOutputs[i].second;
    return req;
  };
  for (size_t i = 0; i < std::size(kOutputs); ++i) {
    Result<protocol::RunReply> run = service.Run(request(i));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->rendered, expected[0][i]);
  }

  std::atomic<bool> done{false};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t k = t; !done.load() || k < t + std::size(kOutputs); ++k) {
        size_t i = k % std::size(kOutputs);
        Result<protocol::RunReply> run = service.Run(request(i));
        if (!run.ok()) {
          failures[t] = run.status().ToString();
          return;
        }
        if (run->epoch >= expected.size() ||
            run->rendered != expected[run->epoch][i]) {
          failures[t] = std::string(kOutputs[i].second) + " at epoch " +
                        std::to_string(run->epoch) + " rendered:\n" +
                        run->rendered;
          return;
        }
      }
    });
  }
  std::string write_failure;
  for (const auto& [is_append, facts] : writes) {
    Status st = is_append ? service.Append({facts, ""}).status()
                          : service.Retract({facts, ""}).status();
    if (!st.ok()) {
      write_failure = st.ToString();
      break;
    }
  }
  done.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(write_failure, "");
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "reader thread " << t;
  }
  EXPECT_EQ(service.db().epoch(), kWrites);
  for (size_t i = 0; i < std::size(kOutputs); ++i) {
    Result<protocol::RunReply> run = service.Run(request(i));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->rendered, expected[kWrites][i]) << kOutputs[i].second;
  }
}

}  // namespace
}  // namespace seqdl
