#include "dist/process_group.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/shm_transport.h"
#include "dist/socket_transport.h"
#include "runtime/runtime.h"

namespace edkm {
namespace dist {

namespace {

using Clock = std::chrono::steady_clock;

/** Child -> parent frame tags. */
constexpr uint8_t kTagResult = 'R';
constexpr uint8_t kTagError = 'E';

/** Blocking full write of the child's result frame (MSG_NOSIGNAL: a
 *  dead parent must not SIGPIPE the child out of its error path). */
bool
writeAll(int fd, const uint8_t *data, size_t len)
{
    size_t done = 0;
    while (done < len) {
        ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

std::vector<uint8_t>
frame(uint8_t tag, const uint8_t *payload, size_t len)
{
    std::vector<uint8_t> out(9 + len);
    out[0] = tag;
    uint64_t n = len;
    std::memcpy(out.data() + 1, &n, 8);
    if (len > 0) {
        std::memcpy(out.data() + 9, payload, len);
    }
    return out;
}

/** Parent-side per-child inbox: accumulates bytes until one complete
 *  frame is parsed. */
struct Inbox
{
    std::vector<uint8_t> buf;
    bool done = false;
    uint8_t tag = 0;
    std::vector<uint8_t> payload;

    /** Returns false on a malformed frame. */
    bool
    tryParse()
    {
        if (done || buf.size() < 9) {
            return true;
        }
        uint64_t len = 0;
        std::memcpy(&len, buf.data() + 1, 8);
        if (len > (1ull << 32)) {
            return false; // absurd length: corrupted stream
        }
        if (buf.size() < 9 + len) {
            return true;
        }
        tag = buf[0];
        payload.assign(buf.begin() + 9,
                       buf.begin() + 9 + static_cast<size_t>(len));
        done = true;
        return tag == kTagResult || tag == kTagError;
    }
};

/** Everything the parent needs to tear the group down exactly once. */
struct Teardown
{
    std::vector<pid_t> pids;
    ShmSegment *segment = nullptr;

    void
    killAll(int dead_rank)
    {
        if (segment != nullptr) {
            // Unblock siblings spinning in an shm collective before
            // (and regardless of) the SIGKILLs below.
            segment->signalAbort(dead_rank < 0 ? 0 : dead_rank);
        }
        for (pid_t pid : pids) {
            if (pid > 0) {
                ::kill(pid, SIGKILL);
            }
        }
        for (pid_t &pid : pids) {
            if (pid > 0) {
                int status = 0;
                ::waitpid(pid, &status, 0);
                pid = -1;
            }
        }
    }
};

[[noreturn]] void
runChild(int rank, int control_fd, const ProcessGroupOptions &options,
         ShmSegment *segment, SocketRing *ring, const LearnerFn &fn)
{
    // First thing after fork: the inherited thread pool's workers do
    // not exist in this process; swap in a live pool before any
    // parallel loop (or pool-joining destructor) can touch the husk.
    runtime::Runtime::instance().resetAfterFork(options.childThreads);

    int exit_code = 1;
    try {
        std::unique_ptr<Transport> transport;
        if (ring != nullptr) {
            ring->closeAllExcept(rank);
            transport = std::make_unique<SocketTransport>(
                *ring, rank, options.timeoutSec);
        } else {
            transport = std::make_unique<ShmTransport>(
                *segment, rank, options.timeoutSec);
        }
        // Rendezvous: prove the whole ring is live before user work.
        transport->barrier();
        std::vector<uint8_t> result = fn(*transport);
        std::vector<uint8_t> msg =
            frame(kTagResult, result.data(), result.size());
        if (writeAll(control_fd, msg.data(), msg.size())) {
            exit_code = 0;
        }
    } catch (const std::exception &e) {
        std::string what = e.what();
        std::vector<uint8_t> msg = frame(
            kTagError, reinterpret_cast<const uint8_t *>(what.data()),
            what.size());
        writeAll(control_fd, msg.data(), msg.size());
    } catch (...) {
        const char *what = "unknown exception in learner";
        std::vector<uint8_t> msg =
            frame(kTagError, reinterpret_cast<const uint8_t *>(what),
                  std::strlen(what));
        writeAll(control_fd, msg.data(), msg.size());
    }
    // _exit, not exit: atexit handlers, stdio flushes and sanitizer
    // exit hooks belong to the parent; running them here would corrupt
    // shared fds and double-report.
    ::_exit(exit_code);
}

} // namespace

std::vector<std::vector<uint8_t>>
ProcessGroup::run(const ProcessGroupOptions &options, const LearnerFn &fn)
{
    EDKM_CHECK(options.world >= 1, "ProcessGroup: world must be >= 1, got ",
               options.world);
    EDKM_CHECK(options.timeoutSec > 0.0,
               "ProcessGroup: timeout must be > 0");
    int world = options.world;

    // Transport resources, created before fork so inheritance is the
    // rendezvous. The shm segment is unlinked inside its constructor.
    std::unique_ptr<ShmSegment> segment;
    std::unique_ptr<SocketRing> ring;
    if (options.kind == TransportKind::kShm) {
        segment = std::make_unique<ShmSegment>(world,
                                               options.shmRingBytes);
    } else {
        ring = std::make_unique<SocketRing>(world);
    }

    // One control socketpair per rank: [0] parent (nonblocking), [1]
    // child (blocking writes).
    std::vector<int> parent_fds(static_cast<size_t>(world), -1);
    std::vector<int> child_fds(static_cast<size_t>(world), -1);
    auto close_fd = [](int &fd) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    };
    auto close_all_control = [&] {
        for (int r = 0; r < world; ++r) {
            close_fd(parent_fds[static_cast<size_t>(r)]);
            close_fd(child_fds[static_cast<size_t>(r)]);
        }
    };
    for (int r = 0; r < world; ++r) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            int err = errno;
            close_all_control();
            throw DistError("dist: control socketpair failed: " +
                            std::string(std::strerror(err)));
        }
        int flags = ::fcntl(sv[0], F_GETFL, 0);
        ::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK);
        parent_fds[static_cast<size_t>(r)] = sv[0];
        child_fds[static_cast<size_t>(r)] = sv[1];
    }

    Teardown teardown;
    teardown.pids.assign(static_cast<size_t>(world), -1);
    teardown.segment = segment.get();

    for (int r = 0; r < world; ++r) {
        // lint:allow(raw-thread) the one sanctioned process-spawn site:
        // learners are real OS processes by design (the whole point of
        // the dist subsystem); determinism is preserved because every
        // learner runs the same deterministic code over a fixed shard
        // layout and collectives combine in rank order.
        pid_t pid = ::fork();
        if (pid < 0) {
            int err = errno;
            teardown.killAll(-1);
            close_all_control();
            throw DistError("dist: fork of learner rank " +
                            std::to_string(r) +
                            " failed: " + std::strerror(err));
        }
        if (pid == 0) {
            // Child: drop every parent-side fd and the other children's
            // control fds, then run the learner. Never returns.
            for (int o = 0; o < world; ++o) {
                close_fd(parent_fds[static_cast<size_t>(o)]);
                if (o != r) {
                    close_fd(child_fds[static_cast<size_t>(o)]);
                }
            }
            runChild(r, child_fds[static_cast<size_t>(r)], options,
                     segment.get(), ring.get(), fn);
        }
        teardown.pids[static_cast<size_t>(r)] = pid;
    }

    // Parent: not a ring participant. Drop the child-side control fds
    // (so child death yields EOF on our side) and every ring fd (so a
    // dead learner's neighbors see EOF/EPIPE instead of a silent stall).
    for (int r = 0; r < world; ++r) {
        close_fd(child_fds[static_cast<size_t>(r)]);
    }
    if (ring) {
        ring->closeAll();
    }

    std::vector<Inbox> inbox(static_cast<size_t>(world));
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.timeoutSec));

    auto fail = [&](int dead_rank,
                    const std::string &why) -> std::vector<std::vector<uint8_t>> {
        teardown.killAll(dead_rank);
        close_all_control();
        throw DistError(why);
    };

    int remaining = world;
    std::vector<uint8_t> chunk(64 * 1024);
    while (remaining > 0) {
        std::vector<struct pollfd> pfds;
        std::vector<int> pfd_rank;
        for (int r = 0; r < world; ++r) {
            if (!inbox[static_cast<size_t>(r)].done) {
                pfds.push_back({parent_fds[static_cast<size_t>(r)],
                                POLLIN, 0});
                pfd_rank.push_back(r);
            }
        }
        auto now = Clock::now();
        if (now >= deadline) {
            return fail(-1, "dist: timed out after " +
                                std::to_string(options.timeoutSec) +
                                "s waiting for " +
                                std::to_string(remaining) + " of " +
                                std::to_string(world) +
                                " learners (wedged rendezvous or "
                                "collective)");
        }
        int wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        int rc = ::poll(pfds.data(),
                        static_cast<nfds_t>(pfds.size()),
                        wait_ms < 1 ? 1 : wait_ms);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            return fail(-1, "dist: poll on learner control fds failed: " +
                                std::string(std::strerror(errno)));
        }
        for (size_t i = 0; i < pfds.size(); ++i) {
            if (pfds[i].revents == 0) {
                continue;
            }
            int r = pfd_rank[i];
            Inbox &ib = inbox[static_cast<size_t>(r)];
            // Drain whatever is available; EOF before a complete frame
            // means the child died without reporting.
            while (true) {
                ssize_t n = ::recv(pfds[i].fd, chunk.data(),
                                   chunk.size(), 0);
                if (n > 0) {
                    ib.buf.insert(ib.buf.end(), chunk.data(),
                                  chunk.data() + n);
                    continue;
                }
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                // n == 0 (EOF) or a hard error.
                if (!ib.tryParse() || !ib.done) {
                    return fail(
                        r, "dist: learner rank " + std::to_string(r) +
                               " of " + std::to_string(world) +
                               " exited without a result (killed or "
                               "crashed mid-collective)");
                }
                break;
            }
            if (!ib.tryParse()) {
                return fail(r, "dist: corrupted control frame from "
                               "learner rank " +
                                   std::to_string(r));
            }
            if (ib.done) {
                if (ib.tag == kTagError) {
                    std::string what(ib.payload.begin(),
                                     ib.payload.end());
                    return fail(r, "dist: learner rank " +
                                       std::to_string(r) + " failed: " +
                                       what);
                }
                --remaining;
            }
        }
    }

    // Every rank reported; reap the children (they _exit right after
    // their final write).
    for (pid_t &pid : teardown.pids) {
        if (pid > 0) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            pid = -1;
        }
    }
    close_all_control();

    std::vector<std::vector<uint8_t>> results;
    results.reserve(static_cast<size_t>(world));
    for (int r = 0; r < world; ++r) {
        results.push_back(std::move(inbox[static_cast<size_t>(r)].payload));
    }
    return results;
}

} // namespace dist
} // namespace edkm
