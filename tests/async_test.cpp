// Tests for the futures layer (src/async): future/promise, async, then,
// when_all/when_any, dataflow, unwrapping, packaged_task, exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "async/gran.hpp"

namespace gran {
namespace {

struct AsyncTest : ::testing::Test {
  AsyncTest() : tm(make_config()) {}
  static scheduler_config make_config() {
    scheduler_config cfg;
    cfg.num_workers = 3;
    cfg.pin_workers = false;
    return cfg;
  }
  thread_manager tm;
};

// --- future/promise -------------------------------------------------------

TEST_F(AsyncTest, PromiseDeliversValue) {
  promise<int> p;
  future<int> f = p.get_future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.is_ready());
  p.set_value(5);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), 5);
  EXPECT_EQ(f.get(), 5);  // shared semantics: get() is repeatable
}

TEST_F(AsyncTest, FutureCopiesShareState) {
  promise<std::string> p;
  future<std::string> a = p.get_future();
  future<std::string> b = a;  // copyable
  p.set_value("hello");
  EXPECT_EQ(a.get(), "hello");
  EXPECT_EQ(b.get(), "hello");
  EXPECT_EQ(&a.get(), &b.get());  // same underlying object
}

TEST_F(AsyncTest, VoidFuture) {
  promise<void> p;
  future<void> f = p.get_future();
  p.set_value();
  f.get();
  EXPECT_TRUE(f.is_ready());
}

TEST_F(AsyncTest, ExceptionPropagates) {
  promise<int> p;
  future<int> f = p.get_future();
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(f.has_exception());
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, DoubleSetThrowsFutureError) {
  promise<int> p;
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), std::future_error);
  EXPECT_THROW(p.set_exception(std::make_exception_ptr(std::runtime_error("x"))),
               std::future_error);
}

TEST_F(AsyncTest, MakeReadyAndExceptional) {
  EXPECT_EQ(make_ready_future<int>(9).get(), 9);
  make_ready_future().get();  // void
  auto bad = make_exceptional_future<int>(
      std::make_exception_ptr(std::logic_error("nope")));
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST_F(AsyncTest, InvalidFutureByDefault) {
  future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.is_ready());
}

TEST_F(AsyncTest, GetFromExternalThreadBlocks) {
  promise<int> p;
  future<int> f = p.get_future();
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    p.set_value(77);
  });
  EXPECT_EQ(f.get(), 77);  // main thread parks as an external waiter
  setter.join();
}

// --- async ------------------------------------------------------------------

TEST_F(AsyncTest, AsyncRunsOnWorker) {
  auto f = async([] { return this_task::worker_index(); });
  EXPECT_GE(f.get(), 0);
}

TEST_F(AsyncTest, AsyncWithArguments) {
  auto f = async([](int a, const std::string& b) { return b + std::to_string(a); }, 42,
                 std::string("x="));
  EXPECT_EQ(f.get(), "x=42");
}

TEST_F(AsyncTest, AsyncVoid) {
  std::atomic<bool> ran{false};
  auto f = async([&ran] { ran = true; });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST_F(AsyncTest, AsyncExceptionIntoFuture) {
  auto f = async([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, AsyncOnExplicitManagerAndPriority) {
  auto f = async_on(tm, task_priority::high, [](int x) { return x * 2; }, 21);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, PostFireAndForget) {
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) post([&hits] { ++hits; });
  tm.wait_idle();
  EXPECT_EQ(hits.load(), 100);
}

TEST_F(AsyncTest, NestedGetInsideTaskSuspends) {
  // Recursive fan-out with get() inside tasks: only cooperative suspension
  // keeps this from deadlocking on a small pool.
  std::function<long(int)> fib = [&](int n) -> long {
    if (n < 2) return n;
    auto left = async([&fib, n] { return fib(n - 1); });
    const long right = fib(n - 2);
    return left.get() + right;
  };
  EXPECT_EQ(async([&] { return fib(15); }).get(), 610);
}

// --- then / unwrap -----------------------------------------------------------

TEST_F(AsyncTest, ThenChains) {
  auto f = async([] { return 10; })
               .then([](future<int> x) { return x.get() + 5; })
               .then([](future<int> x) { return x.get() * 2; });
  EXPECT_EQ(f.get(), 30);
}

TEST_F(AsyncTest, ThenReceivesException) {
  auto f = async([]() -> int { throw std::runtime_error("inner"); })
               .then([](future<int> x) {
                 EXPECT_TRUE(x.has_exception());
                 return -1;  // recovered
               });
  EXPECT_EQ(f.get(), -1);
}

TEST_F(AsyncTest, ThenExceptionPropagates) {
  auto f = async([] { return 1; }).then([](future<int>) -> int {
    throw std::logic_error("continuation failed");
  });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST_F(AsyncTest, ThenUnwrapsFutureResult) {
  // A continuation returning future<int> yields future<int>, not
  // future<future<int>>.
  future<int> f = async([] { return 3; }).then([](future<int> x) {
    return async([v = x.get()] { return v * 7; });
  });
  EXPECT_EQ(f.get(), 21);
}

TEST_F(AsyncTest, ExplicitUnwrap) {
  auto outer = async([] { return make_ready_future<int>(13); });
  future<int> inner = unwrap(std::move(outer));
  EXPECT_EQ(inner.get(), 13);
}

TEST_F(AsyncTest, ThenOnAlreadyReadyFuture) {
  auto f = make_ready_future<int>(4).then([](future<int> x) { return x.get() + 1; });
  EXPECT_EQ(f.get(), 5);
}

// --- when_all / when_any --------------------------------------------------------

TEST_F(AsyncTest, WhenAllVector) {
  std::vector<future<int>> fs;
  for (int i = 0; i < 64; ++i) fs.push_back(async([i] { return i; }));
  when_all(fs).wait();
  int sum = 0;
  for (auto& f : fs) {
    ASSERT_TRUE(f.is_ready());
    sum += f.get();
  }
  EXPECT_EQ(sum, 63 * 64 / 2);
}

TEST_F(AsyncTest, WhenAllEmpty) {
  std::vector<future<int>> fs;
  auto all = when_all(fs);
  EXPECT_TRUE(all.is_ready());
}

TEST_F(AsyncTest, WhenAllVariadic) {
  auto a = async([] { return 1; });
  auto b = async([] { return std::string("two"); });
  auto c = async([] {});
  when_all(a, b, c).wait();
  EXPECT_TRUE(a.is_ready());
  EXPECT_TRUE(b.is_ready());
  EXPECT_TRUE(c.is_ready());
}

TEST_F(AsyncTest, WhenAllCountsExceptionsAsReady) {
  std::vector<future<int>> fs;
  fs.push_back(async([]() -> int { throw std::runtime_error("x"); }));
  fs.push_back(async([] { return 1; }));
  when_all(fs).wait();
  EXPECT_TRUE(fs[0].has_exception());
  EXPECT_EQ(fs[1].get(), 1);
}

TEST_F(AsyncTest, WhenAnyIndex) {
  promise<int> slow;
  std::vector<future<int>> fs;
  fs.push_back(slow.get_future());
  fs.push_back(make_ready_future<int>(2));
  const std::size_t idx = when_any(fs).get();
  EXPECT_EQ(idx, 1u);
  slow.set_value(0);  // cleanup
}

// --- dataflow --------------------------------------------------------------------

TEST_F(AsyncTest, DataflowWaitsForAllInputs) {
  promise<int> pa, pb;
  std::atomic<bool> fired{false};
  auto f = dataflow(
      [&fired](future<int>& a, future<int>& b) {
        fired = true;
        return a.get() + b.get();
      },
      pa.get_future(), pb.get_future());
  pa.set_value(30);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(fired.load());  // one input is not enough
  pb.set_value(12);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, DataflowNoInputsFiresImmediately) {
  auto f = dataflow([] { return 99; });
  EXPECT_EQ(f.get(), 99);
}

TEST_F(AsyncTest, DataflowUnwraps) {
  auto a = make_ready_future<int>(6);
  future<int> f = dataflow(
      [](future<int>& x) { return async([v = x.get()] { return v * 7; }); }, a);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, DataflowExceptionFromBody) {
  auto a = make_ready_future<int>(1);
  auto f = dataflow([](future<int>&) -> int { throw std::runtime_error("df"); }, a);
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, DataflowVectorForm) {
  std::vector<future<int>> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back(async([i] { return i; }));
  auto f = dataflow_all(
      [](const std::vector<future<int>>& fs) {
        int s = 0;
        for (const auto& x : fs) s += x.get();
        return s;
      },
      inputs);
  EXPECT_EQ(f.get(), 45);
}

TEST_F(AsyncTest, DataflowChainDepth) {
  // A linear chain of dataflow nodes: each depends on the previous.
  future<int> f = make_ready_future<int>(0);
  for (int i = 0; i < 200; ++i)
    f = dataflow([](future<int>& prev) { return prev.get() + 1; }, f);
  EXPECT_EQ(f.get(), 200);
}

TEST_F(AsyncTest, HeldResultDoesNotPinChainHistory) {
  // Only the last future of a depth-64 chain is kept. Each node hands its
  // inputs back once its body has run, so nothing upstream stays alive.
  std::weak_ptr<detail::shared_state<int>> first_input;
  std::weak_ptr<detail::shared_state<int>> middle;
  future<int> last;
  {
    promise<int> p;
    future<int> f = p.get_future();
    first_input = f.state();
    for (int i = 0; i < 64; ++i) {
      f = dataflow([](future<int>& prev) { return prev.get() + 1; }, f);
      if (i == 31) middle = f.state();
    }
    last = f;
    p.set_value(0);
  }
  EXPECT_EQ(last.get(), 64);
  tm.wait_idle();  // every node's task has retired
  EXPECT_TRUE(first_input.expired());
  EXPECT_TRUE(middle.expired());
  EXPECT_FALSE(last.state() == nullptr);
}

TEST_F(AsyncTest, ContinuationsPastInlineSlotsRunOnceInOrder) {
  static constexpr int n = 10;
  static_assert(n > detail::shared_state<int>::k_inline_continuations);
  promise<int> p;
  future<int> f = p.get_future();
  std::vector<int> order;  // continuations run sequentially on the setter
  for (int i = 0; i < n; ++i) f.on_ready([&order, i] { order.push_back(i); });
  EXPECT_TRUE(order.empty());
  p.set_value(1);
  std::vector<int> expected(n);
  for (int i = 0; i < n; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
  f.on_ready([&order] { order.push_back(n); });  // ready: runs inline, once
  EXPECT_EQ(order.size(), static_cast<std::size_t>(n + 1));
}

TEST_F(AsyncTest, TimedOutWaitersLeaveTheWaitQueue) {
  using namespace std::chrono_literals;
  promise<int> p;
  future<int> f = p.get_future();
  // A waiter that stays queued while the timed ones come and go.
  auto staying = async([f] { return f.get(); });
  while (!f.state()->has_waiters()) std::this_thread::yield();

  std::future_status external_status = std::future_status::ready;
  std::thread external([&] { external_status = f.wait_for(30ms); });
  auto task_status = async([f] { return f.wait_for(20ms); });
  external.join();
  EXPECT_EQ(external_status, std::future_status::timeout);
  EXPECT_EQ(task_status.get(), std::future_status::timeout);
  EXPECT_TRUE(f.state()->has_waiters());  // only the staying waiter is left

  p.set_value(3);
  EXPECT_EQ(staying.get(), 3);
  EXPECT_FALSE(f.state()->has_waiters());

  // Both kinds time out alone too, leaving an empty queue behind.
  promise<int> q;
  future<int> g = q.get_future();
  EXPECT_EQ(g.wait_for(2ms), std::future_status::timeout);
  EXPECT_FALSE(g.state()->has_waiters());
  EXPECT_EQ(async([g] { return g.wait_for(2ms); }).get(), std::future_status::timeout);
  EXPECT_FALSE(g.state()->has_waiters());
  q.set_value(4);
  EXPECT_EQ(g.get(), 4);
}

// --- packaged_task -----------------------------------------------------------------

TEST_F(AsyncTest, PackagedTaskBasics) {
  packaged_task<int(int, int)> pt([](int a, int b) { return a * b; });
  EXPECT_TRUE(pt.valid());
  auto f = pt.get_future();
  EXPECT_FALSE(f.is_ready());
  pt(6, 7);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, PackagedTaskException) {
  packaged_task<int()> pt([]() -> int { throw std::runtime_error("pt"); });
  auto f = pt.get_future();
  pt();
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, PackagedTaskDoubleCallThrows) {
  packaged_task<int()> pt([] { return 1; });
  pt();
  EXPECT_THROW(pt(), std::future_error);
}

TEST_F(AsyncTest, PackagedTaskVoid) {
  int hits = 0;
  packaged_task<void()> pt([&hits] { ++hits; });
  auto f = pt.get_future();
  pt();
  f.get();
  EXPECT_EQ(hits, 1);
}


// --- executor --------------------------------------------------------------------

TEST_F(AsyncTest, ExecutorAsyncAndPost) {
  executor exec(tm);
  EXPECT_EQ(&exec.manager(), &tm);
  EXPECT_EQ(exec.priority(), task_priority::normal);
  EXPECT_EQ(exec.async([](int x) { return x + 1; }, 41).get(), 42);
  std::atomic<int> hits{0};
  for (int i = 0; i < 50; ++i) exec.post([&hits] { ++hits; });
  tm.wait_idle();
  EXPECT_EQ(hits.load(), 50);
}

TEST_F(AsyncTest, ExecutorWithPriority) {
  executor exec(tm);
  const executor high = exec.with_priority(task_priority::high);
  EXPECT_EQ(high.priority(), task_priority::high);
  EXPECT_EQ(&high.manager(), &tm);
  EXPECT_FALSE(exec == high);
  EXPECT_TRUE(exec == executor(tm));
  EXPECT_EQ(high.async([] { return 7; }).get(), 7);
}

TEST_F(AsyncTest, ExecutorDataflow) {
  executor exec(tm);
  auto a = exec.async([] { return 5; });
  auto b = exec.async([] { return 6; });
  auto c = exec.dataflow(
      [](future<int>& x, future<int>& y) { return x.get() * y.get(); }, a, b);
  EXPECT_EQ(c.get(), 30);
}

TEST_F(AsyncTest, DefaultExecutorUsesDefaultManager) {
  executor exec;  // resolves to `tm` (the fixture's manager is the default)
  EXPECT_EQ(&exec.manager(), &tm);
}

// --- cross-cutting stress ------------------------------------------------------------

TEST_F(AsyncTest, ManyConcurrentFutures) {
  std::vector<future<long>> fs;
  constexpr int n = 5000;
  fs.reserve(n);
  for (int i = 0; i < n; ++i) fs.push_back(async([i] { return static_cast<long>(i); }));
  when_all(fs).wait();
  long sum = 0;
  for (auto& f : fs) sum += f.get();
  EXPECT_EQ(sum, static_cast<long>(n - 1) * n / 2);
}

TEST_F(AsyncTest, DiamondDependencies) {
  auto root = async([] { return 1; });
  auto left = dataflow([](future<int>& r) { return r.get() + 10; }, root);
  auto right = dataflow([](future<int>& r) { return r.get() + 100; }, root);
  auto join = dataflow(
      [](future<int>& l, future<int>& r) { return l.get() + r.get(); }, left, right);
  EXPECT_EQ(join.get(), 112);
}

}  // namespace
}  // namespace gran
