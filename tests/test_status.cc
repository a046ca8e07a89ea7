// Unit tests for Status / Result and the propagation macros.

#include "common/status.h"

#include <gtest/gtest.h>

#include <string>

namespace treewm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad input");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ParseError("").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Timeout("").code(), StatusCode::kTimeout);
}

TEST(StatusTest, CopyIsCheapAndEqual) {
  Status a = Status::Internal("boom");
  Status b = a;  // shared state
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "boom");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "parse_error");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTimeout), "timeout");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusIsNormalizedToInternalError) {
  Result<int> r((Status()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string moved = r.MoveValue();
  EXPECT_EQ(moved.size(), 1000u);
}

namespace helpers {

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Caller(int x) {
  TREEWM_RETURN_IF_ERROR(FailsWhenNegative(x));
  return Status::OK();
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TREEWM_ASSIGN_OR_RETURN(int half, Half(x));
  TREEWM_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

}  // namespace helpers

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(helpers::Caller(1).ok());
  EXPECT_EQ(helpers::Caller(-1).code(), StatusCode::kInvalidArgument);
}

TEST(StatusMacrosTest, AssignOrReturnChains) {
  Result<int> ok = helpers::Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(helpers::Quarter(6).ok());  // fails at the second step
  EXPECT_FALSE(helpers::Quarter(3).ok());  // fails at the first step
}

}  // namespace
}  // namespace treewm
