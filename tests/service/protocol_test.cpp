// Wire-protocol parsing: the daemon's checked-parse policy under test.
// Every malformed header must be rejected with a structured ProtocolError
// — partial integer parses ("4096x") are the bug class satellite #1 fixed
// in the env layer, and the wire must hold the same line.
#include "core/service/protocol.hpp"

#include <gtest/gtest.h>

#include "core/fingerprint.hpp"

namespace nk::service {
namespace {

TEST(Protocol, RequestLinesRoundTrip) {
  const char* lines[] = {
      "HELLO",
      "PUTGEN hpcg_4_4_4 2",
      "PUT 4096 97336 1",
      "SOLVE 00ff00ff00ff00ff 8 4096 cg/bj;wave=4;nblocks=8",
      "STATS",
      "FREE 0123456789abcdef",
      "SHUTDOWN",
  };
  for (const char* line : lines) {
    SCOPED_TRACE(line);
    EXPECT_EQ(format_request_line(parse_request_line(line)), line);
  }
}

TEST(Protocol, SolveFieldsParseExactly) {
  const Request r = parse_request_line("SOLVE 00000000000000ab 8 4096 cg/bj;wave=4");
  EXPECT_EQ(r.verb, Request::Verb::kSolve);
  EXPECT_EQ(r.handle, 0xabu);
  EXPECT_EQ(r.k, 8);
  EXPECT_EQ(r.n, 4096);
  EXPECT_EQ(r.spec, "cg/bj;wave=4");
}

TEST(Protocol, RejectsTrailingGarbageInEveryIntegerField) {
  // The "4096x" class: strtol would happily stop at the 'x'.
  EXPECT_THROW(parse_request_line("PUT 4096x 97336 1"), ProtocolError);
  EXPECT_THROW(parse_request_line("PUT 4096 97336z 1"), ProtocolError);
  EXPECT_THROW(parse_request_line("SOLVE 00000000000000ab 8x 16 cg"), ProtocolError);
  EXPECT_THROW(parse_request_line("SOLVE 00000000000000ab 8 16.0 cg"), ProtocolError);
  EXPECT_THROW(parse_request_line("PUTGEN hpcg_4_4_4 2x"), ProtocolError);
}

TEST(Protocol, RejectsMalformedStructure) {
  EXPECT_THROW(parse_request_line(""), ProtocolError);
  EXPECT_THROW(parse_request_line("FROB 1 2"), ProtocolError);
  EXPECT_THROW(parse_request_line("HELLO there"), ProtocolError);
  EXPECT_THROW(parse_request_line("PUT 16 32"), ProtocolError);        // missing sym
  EXPECT_THROW(parse_request_line("PUT 16 32 1 0"), ProtocolError);    // extra field
  EXPECT_THROW(parse_request_line("PUT  16 32 1"), ProtocolError);     // doubled space
  EXPECT_THROW(parse_request_line("SOLVE zz 8 16 cg"), ProtocolError); // bad hex
  EXPECT_THROW(parse_request_line("FREE 0123456789abcdef0"), ProtocolError);  // 17 digits
}

TEST(Protocol, EnforcesBounds) {
  EXPECT_THROW(parse_request_line("PUT 0 0 0"), ProtocolError);   // n >= 1
  EXPECT_THROW(parse_request_line("PUT -4 0 0"), ProtocolError);
  EXPECT_THROW(parse_request_line("SOLVE 00000000000000ab 0 16 cg"), ProtocolError);
  EXPECT_THROW(
      parse_request_line("SOLVE 00000000000000ab " + std::to_string(kMaxK + 1) + " 16 cg"),
      ProtocolError);
  EXPECT_THROW(parse_request_line("PUT 999999999999999999999 1 0"), ProtocolError);
  EXPECT_THROW(parse_request_line("PUTGEN hpcg_4_4_4 65"), ProtocolError);
}

TEST(Protocol, ErrorsCarryTheWireCode) {
  try {
    parse_request_line("PUT 4096x 1 0");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), "bad-request");
    EXPECT_NE(std::string(e.what()).find("4096x"), std::string::npos)
        << "message must name the offending value";
  }
}

TEST(Protocol, ColLinesRoundTrip) {
  SolveResult ok;
  ok.mark_converged();
  ok.iterations = 27;
  ok.final_relres = 9.2211e-09;
  const WireColumn c = parse_col_line(format_col_line(3, ok));
  EXPECT_EQ(c.col, 3);
  EXPECT_TRUE(c.converged());
  EXPECT_EQ(c.iterations, 27);
  EXPECT_DOUBLE_EQ(c.relres, 9.2211e-09);
  EXPECT_TRUE(c.failure.empty());

  SolveResult bad;
  bad.fail(SolveStatus::kNonFinite, "pivot");
  bad.iterations = 2;
  bad.final_relres = 1.0;
  const WireColumn d = parse_col_line(format_col_line(0, bad));
  EXPECT_FALSE(d.converged());
  EXPECT_EQ(d.status, "non_finite");
  EXPECT_EQ(d.failure, "pivot");
}

TEST(Protocol, ColLineRejectsGarbage) {
  EXPECT_THROW(parse_col_line("COL 0 converged 12"), ProtocolError);
  EXPECT_THROW(parse_col_line("ROW 0 converged 12 1e-9 -"), ProtocolError);
  EXPECT_THROW(parse_col_line("COL x converged 12 1e-9 -"), ProtocolError);
  EXPECT_THROW(parse_col_line("COL 0 converged 12 1e-9x -"), ProtocolError);
}

TEST(Fingerprint, HexRoundTripsAndParsesStrictly) {
  const std::uint64_t fps[] = {0u, 0xabcdefull, ~0ull, kFnvOffset};
  for (const std::uint64_t fp : fps) {
    const std::string hex = fingerprint_hex(fp);
    EXPECT_EQ(hex.size(), 16u);
    std::uint64_t back = 0;
    ASSERT_TRUE(parse_fingerprint_hex(hex, back));
    EXPECT_EQ(back, fp);
  }
  std::uint64_t out = 0;
  EXPECT_TRUE(parse_fingerprint_hex("AB", out));  // upper-case accepted
  EXPECT_EQ(out, 0xabu);
  EXPECT_FALSE(parse_fingerprint_hex("", out));
  EXPECT_FALSE(parse_fingerprint_hex("0x12", out));
  EXPECT_FALSE(parse_fingerprint_hex("12 ", out));
  EXPECT_FALSE(parse_fingerprint_hex("0123456789abcdef0", out));  // 17 digits
  EXPECT_FALSE(parse_fingerprint_hex("-1", out));
}

}  // namespace
}  // namespace nk::service
