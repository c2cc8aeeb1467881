// locklint LL011 fixture: two ranked locks acquired in both orders. The
// forward path respects the hierarchy; the backward path violates it and,
// together with the forward path, closes a lock-order cycle (a static
// deadlock: one thread in Forward() and one in Backward() can each hold
// the lock the other wants).
//
// The ranks come from src/common/lock_rank_table.h's constants, but the
// canonical names are fixture-local, so this file cannot collide with the
// real repo graph.
namespace fixture {

class Widget {
 public:
  void Forward() {
    MutexLock outer(a_);
    MutexLock inner(b_);
    Touch();
  }

  void Backward() {
    MutexLock inner(b_);
    MutexLock outer(a_);
    Touch();
  }

 private:
  void Touch() {}

  Mutex a_{kLockRankManager, "Widget::a_"};
  Mutex b_{kLockRankLeaf, "Widget::b_"};
};

}  // namespace fixture
