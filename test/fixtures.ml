(** MiniJava fixture programs used across the test suites. The first four are
    transcriptions of the paper's running examples (Figures 1, 3, 4, 5). *)

(* Figure 1: the Carton/Item motivating example. *)
let carton =
  {|
class Item { }

class Carton {
  Item item;
  void setItem(Item item) { this.item = item; }
  Item getItem() {
    Item r = this.item;
    return r;
  }
}

class Main {
  static void main() {
    Carton c1 = new Carton();      // o15
    Item item1 = new Item();       // o16
    c1.setItem(item1);
    Item result1 = c1.getItem();

    Carton c2 = new Carton();      // o20
    Item item2 = new Item();       // o21
    c2.setItem(item2);
    Item result2 = c2.getItem();
    System.print(result1);
    System.print(result2);
  }
}
|}

(* Figure 3: nested calls for field access. *)
let nested =
  {|
class T { }

class A {
  T f;
  A(T t) { this.set(t); }
  void set(T p) { this.f = p; }
  T get() {
    T r = this.f;
    return r;
  }
}

class Main {
  static void main() {
    T t1 = new T();        // o7
    A a1 = new A(t1);      // o8
    T t2 = new T();        // o9
    A a2 = new A(t2);      // o10
    T r1 = a1.get();
    T r2 = a2.get();
    System.print(r1);
    System.print(r2);
  }
}
|}

(* Figure 4: ArrayList and iterators. *)
let containers =
  {|
class Main {
  static void main() {
    ArrayList l1 = new ArrayList();    // host o1
    Object a = new Object();           // o2
    l1.add(a);
    Object x = l1.get(0);

    ArrayList l2 = new ArrayList();    // host o6
    Object b = new Object();           // o7
    l2.add(b);
    Object y = l2.get(0);

    Iterator it1 = l1.iterator();
    Object r1 = it1.next();
    Iterator it2 = l2.iterator();
    Object r2 = it2.next();
    System.print(x);
    System.print(y);
    System.print(r1);
    System.print(r2);
  }
}
|}

(* Figure 5: local flow pattern. *)
let localflow =
  {|
class V { }

class C {
  static V select(boolean b, V p1, V p2) {
    V r = p2;
    if (b) {
      r = p1;
    }
    return r;
  }

  static void main() {
    V o10 = new V();
    V o11 = new V();
    V r1 = C.select(true, o10, o11);

    V o14 = new V();
    V o15 = new V();
    V r2 = C.select(false, o14, o15);
    System.print(r1);
    System.print(r2);
  }
}
|}

(* Map usage: keys/values/views, exercising categories in the container
   pattern. *)
let maps =
  {|
class K { }
class W { }

class Main {
  static void main() {
    HashMap m1 = new HashMap();
    K k1 = new K();
    W w1 = new W();
    m1.put(k1, w1);
    Object v1 = m1.get(k1);

    HashMap m2 = new HashMap();
    K k2 = new K();
    W w2 = new W();
    m2.put(k2, w2);
    Object v2 = m2.get(k2);

    Iterator kit = m1.keySet().iterator();
    Object kk = kit.next();
    Iterator vit = m2.values().iterator();
    Object vv = vit.next();
    System.print(v1);
    System.print(v2);
    System.print(kk);
    System.print(vv);
  }
}
|}

(* One list with several adds and gets and one map with several puts and
   gets: hosts with many Sources and Targets per category, which the
   container pattern routes through one relay pointer each. *)
let bags =
  {|
class A { }
class B { }
class K { }

class Main {
  static void main() {
    ArrayList l = new ArrayList();
    A a1 = new A();
    A a2 = new A();
    A a3 = new A();
    l.add(a1);
    l.add(a2);
    l.add(a3);
    Object g1 = l.get(0);
    Object g2 = l.get(1);

    HashMap m = new HashMap();
    K k1 = new K();
    K k2 = new K();
    B b1 = new B();
    B b2 = new B();
    m.put(k1, b1);
    m.put(k2, b2);
    Object v1 = m.get(k1);
    Object v2 = m.get(k2);
    Iterator ks = m.keySet().iterator();
    Object kk = ks.next();

    ArrayList other = new ArrayList();
    B b3 = new B();
    other.add(b3);
    Object o1 = other.get(0);
    A cast = (A) g1;
    System.print(g2);
    System.print(v1);
    System.print(v2);
    System.print(kk);
    System.print(o1);
    System.print(cast);
  }
}
|}

(* Polymorphism: virtual dispatch, casts (one safe, one that may fail). *)
let poly =
  {|
class Animal {
  Object speak() { return null; }
}
class Dog extends Animal {
  Object speak() {
    Object r = new Object();
    return r;
  }
}
class Cat extends Animal {
  Object speak() {
    Object r = new Object();
    return r;
  }
}

class Main {
  static Animal pick(boolean b) {
    Animal a = new Dog();
    if (b) {
      a = new Cat();
    }
    return a;
  }

  static void main() {
    Animal a = Main.pick(true);
    Object s = a.speak();
    Animal d = new Dog();
    Dog dd = (Dog) d;          // safe cast
    Animal c = Main.pick(false);
    Dog maybe = (Dog) c;       // may fail
    System.print(s);
    System.print(dd);
    System.print(maybe);
  }
}
|}

(* A small executable program with loops and arithmetic, for the
   interpreter tests. *)
let arith =
  {|
class Main {
  static int fact(int n) {
    int acc = 1;
    int i = 1;
    while (i <= n) {
      acc = acc * i;
      i = i + 1;
    }
    return acc;
  }

  static void main() {
    int x = Main.fact(5);
    System.print(x);
    ArrayList l = new ArrayList();
    int i = 0;
    while (i < 10) {
      l.add(new Object());
      i = i + 1;
    }
    System.print(l.size());
  }
}
|}

let all =
  [ ("carton", carton); ("nested", nested); ("containers", containers);
    ("localflow", localflow); ("maps", maps); ("bags", bags); ("poly", poly);
    ("arith", arith) ]
