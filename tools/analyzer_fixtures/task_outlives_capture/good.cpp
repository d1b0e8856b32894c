// Fixture (positive): detached-task captures the analyzer must accept —
// by-value captures (each task owns its copy), frames that join the pool
// before returning, parallel_for (which joins internally), and by-ref
// captures of reference parameters (the caller owns the referent).

namespace fixture {

class ThreadPool {
 public:
  void submit(const std::function<void()>& fn);
  void wait_idle();
};

void parallel_for(int n, const std::function<void(int)>& fn);

void consume(const std::vector<int>& v);
void bump(std::vector<long>& slots, int i);

void fire_by_value(ThreadPool& pool) {
  std::vector<int> rows = {1, 2, 3};
  pool.submit([rows] { consume(rows); });  // copy: task owns its rows
}

void fire_and_join(ThreadPool& pool) {
  std::vector<int> rows = {4, 5, 6};
  pool.submit([&rows] { consume(rows); });
  pool.wait_idle();  // joined: rows outlives the task
}

void fan_out(std::vector<long>& slots, int n) {
  parallel_for(n, [&slots](int i) {  // parallel_for joins before returning
    bump(slots, i);
  });
}

void relay(ThreadPool& pool, std::vector<int>& shared) {
  // `shared` is a reference parameter: its referent belongs to the
  // caller, which is responsible for outliving the pool.
  pool.submit([&shared] { consume(shared); });
}

}  // namespace fixture
