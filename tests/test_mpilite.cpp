// In-process message passing: point-to-point ordering, sendrecv,
// nonblocking requests, error propagation.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "netsim/mpilite.hpp"

namespace gc::netsim {
namespace {

TEST(MpiLite, PointToPointDelivers) {
  MpiLite world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, netsim::kTest7, Payload{1.0f, 2.0f, 3.0f});
    } else {
      const Payload p = comm.recv(0, netsim::kTest7);
      EXPECT_EQ(p, (Payload{1.0f, 2.0f, 3.0f}));
    }
  });
}

TEST(MpiLite, FifoOrderPerChannel) {
  MpiLite world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 10; ++k) comm.send(1, netsim::kTest0, Payload{Real(k)});
    } else {
      for (int k = 0; k < 10; ++k) {
        const Payload p = comm.recv(0, netsim::kTest0);
        EXPECT_FLOAT_EQ(p[0], Real(k));
      }
    }
  });
}

TEST(MpiLite, TagsAreIndependentChannels) {
  MpiLite world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, netsim::kTest1, Payload{Real(11)});
      comm.send(1, netsim::kTest2, Payload{Real(22)});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_FLOAT_EQ(comm.recv(0, netsim::kTest2)[0], Real(22));
      EXPECT_FLOAT_EQ(comm.recv(0, netsim::kTest1)[0], Real(11));
    }
  });
}

TEST(MpiLite, SendRecvExchanges) {
  MpiLite world(2);
  world.run([](Comm& comm) {
    const int partner = 1 - comm.rank();
    const Payload got =
        comm.sendrecv(partner, netsim::kTest5, Payload{Real(comm.rank())});
    EXPECT_FLOAT_EQ(got[0], Real(partner));
  });
}

TEST(MpiLite, RingPassAccumulates) {
  const int ranks = 5;
  MpiLite world(ranks);
  world.run([ranks](Comm& comm) {
    const int next = (comm.rank() + 1) % ranks;
    const int prev = (comm.rank() + ranks - 1) % ranks;
    if (comm.rank() == 0) {
      comm.send(next, netsim::kTest0, Payload{Real(0)});
      const Payload p = comm.recv(prev, netsim::kTest0);
      EXPECT_FLOAT_EQ(p[0], Real(ranks - 1));
    } else {
      Payload p = comm.recv(prev, netsim::kTest0);
      p[0] += Real(1);
      comm.send(next, netsim::kTest0, std::move(p));
    }
  });
}

TEST(MpiLite, CountsTraffic) {
  MpiLite world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, netsim::kTest0, Payload(100, Real(1)));
    if (comm.rank() == 1) comm.recv(0, netsim::kTest0);
  });
  EXPECT_EQ(world.total_messages(), 1);
  EXPECT_EQ(world.total_payload_values(), 100);
}

TEST(MpiLite, ExceptionsPropagateToCaller) {
  MpiLite world(3);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 1) throw Error("boom");
               }),
               Error);
}

TEST(MpiLite, SendToInvalidRankThrows) {
  MpiLite world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 0) comm.send(5, netsim::kTest0, Payload{});
               }),
               Error);
}

TEST(MpiLite, RankFailureWakesBlockedRecv) {
  // Regression: a rank blocked in recv used to wait forever when another
  // rank died, deadlocking run(). The abort flag must wake it, and the
  // root-cause exception (not the secondary CommAborted) must surface.
  MpiLite world(2);
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) throw Error("rank 0 died");
      comm.recv(0, netsim::kTest3);  // no sender exists; would block forever
    });
    FAIL() << "run() swallowed the failure";
  } catch (const CommAborted&) {
    FAIL() << "root cause lost to the secondary abort";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0 died"), std::string::npos);
  }
  EXPECT_TRUE(world.aborted());
}

TEST(MpiLite, AbortedWorldRequiresResetThenRunsAgain) {
  MpiLite world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 0) throw Error("x");
                 comm.recv(0, netsim::kTest1);
               }),
               Error);
  // Refuses to run while the abort flag is up...
  EXPECT_THROW(world.run([](Comm&) {}), Error);
  // ...and is fully usable after reset().
  world.reset();
  EXPECT_FALSE(world.aborted());
  world.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, netsim::kTest1, Payload{Real(7)});
    if (comm.rank() == 1) {
      EXPECT_FLOAT_EQ(comm.recv(0, netsim::kTest1)[0], Real(7));
    }
  });
}

TEST(MpiLite, SingleRankWorldWorks) {
  MpiLite world(1);
  int visits = 0;
  world.run([&visits](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    EXPECT_EQ(comm.allreduce_sum(2.5), 2.5);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

// ---------------------------------------------------------------------------
// MpiLiteRequest: the nonblocking isend/irecv layer driving the executed
// compute–communication overlap.

TEST(MpiLiteRequest, OutOfOrderWaitMatchesPostingOrder) {
  // Matching is FIFO per channel: waiting on the *last* posted handle
  // first must still hand message k to the k-th posted irecv.
  MpiLite world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 3; ++k) comm.send(1, netsim::kTest0, Payload{Real(10 + k)});
    } else {
      Request r0 = comm.irecv(0, netsim::kTest0);
      Request r1 = comm.irecv(0, netsim::kTest0);
      Request r2 = comm.irecv(0, netsim::kTest0);
      // Completing r2 forces delivery of the two older messages into
      // r0/r1 along the way.
      EXPECT_EQ(comm.wait(r2), Payload{Real(12)});
      EXPECT_TRUE(r0.done());
      EXPECT_TRUE(r1.done());
      EXPECT_EQ(comm.wait(r0), Payload{Real(10)});
      EXPECT_EQ(comm.wait(r1), Payload{Real(11)});
    }
  });
}

TEST(MpiLiteRequest, WaitAllSkipsInvalidAndDuplicateHandles) {
  MpiLite world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, netsim::kTest0, Payload{Real(1)});
      comm.send(1, netsim::kTest1, Payload{Real(2)});
    } else {
      Request a = comm.irecv(0, netsim::kTest0);
      Request b = comm.irecv(0, netsim::kTest1);
      // Invalid handle + the same request twice: both legal no-ops.
      std::vector<Request> batch{a, Request{}, b, a};
      comm.wait_all(batch);
      EXPECT_TRUE(a.done());
      EXPECT_TRUE(b.done());
      EXPECT_EQ(comm.wait(a), Payload{Real(1)});
      EXPECT_EQ(comm.wait(b), Payload{Real(2)});
      // The payload moves out on first wait; a second wait is empty.
      EXPECT_TRUE(comm.wait(a).empty());
    }
  });
}

TEST(MpiLiteRequest, ReliableDeliveryUnderDropsAndCorruption) {
  // isend/irecv ride the same envelope protocol as send/recv: every
  // payload arrives intact and in order despite injected faults.
  MpiLite world(2);
  FaultSpec faults(404);
  faults.rates.drop = 0.2;
  faults.rates.corrupt = 0.2;
  world.set_fault_spec(&faults);
  world.set_reliability({5.0, 50, 1.5, 8.0});
  const int n = 40;
  world.run([n](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < n; ++k) {
        comm.isend(1, netsim::kTest0, Payload{Real(k), Real(3 * k)});
      }
    } else {
      std::vector<Request> rs;
      for (int k = 0; k < n; ++k) rs.push_back(comm.irecv(0, netsim::kTest0));
      comm.wait_all(rs);
      for (int k = 0; k < n; ++k) {
        ASSERT_EQ(comm.wait(rs[static_cast<std::size_t>(k)]),
                  (Payload{Real(k), Real(3 * k)}))
            << "k=" << k;
      }
    }
  });
  EXPECT_GT(faults.counters().drops + faults.counters().corruptions, 0);
  EXPECT_GT(world.reliability_totals().retransmits, 0);
}

TEST(MpiLiteRequest, WaitOnAbortedWorldRaisesCommAborted) {
  // A rank blocked in wait() must be woken by a world abort exactly like
  // a blocking recv — the root-cause exception surfaces from run().
  MpiLite world(2);
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) throw Error("rank 0 died");
      Request r = comm.irecv(0, netsim::kTest9);  // no sender exists
      comm.wait(r);                  // would block forever without the abort
    });
    FAIL() << "run() swallowed the failure";
  } catch (const CommAborted&) {
    FAIL() << "root cause lost to the secondary abort";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0 died"), std::string::npos);
  }
  EXPECT_TRUE(world.aborted());
}

}  // namespace
}  // namespace gc::netsim
