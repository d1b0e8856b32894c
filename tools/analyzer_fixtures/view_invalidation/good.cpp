// Fixture (positive): view lifetimes the analyzer must accept — views
// re-derived after the mutation, the sanctioned erase-loop idiom (the
// iterator is reassigned from erase's return before it is read again), and
// mutation of a *different* container.

namespace fixture {

int rederive(int n) {
  std::vector<int> names;
  names.push_back(1);
  names.push_back(2);
  const int* p = names.data();  // derived after every mutation
  return p[0] + n;
}

int other_container() {
  std::vector<int> a;
  std::vector<int> b;
  a.push_back(1);
  const int* pa = a.data();
  b.push_back(2);  // mutating b leaves views into a alone
  return *pa;
}

void erase_loop(std::vector<int>& v) {
  for (auto it = v.begin(); it != v.end();) {
    if (*it < 0) {
      it = v.erase(it);  // reassigned before any further read
    } else {
      ++it;
    }
  }
}

}  // namespace fixture
