/* Elliptic-curve kernel over prime fields: variable-base scalar
 * multiplication, fixed-base tables for k*G and k*P_B, one finish that adds
 * and makes points affine, and the x-window residue search of the codec.
 *
 * Plain C, no libpython dependency: the Python side loads this as a shared
 * library through ctypes, so calls release the GIL and two worker threads
 * can genuinely run on two cores.
 *
 * Values are little-endian arrays of 64-bit limbs.  Moduli up to 9 limbs
 * (576 bits) are supported, which covers every curve the package ships;
 * p is an odd prime whose top limb, limb nl - 1, is nonzero.
 * Every field multiply is one CIOS Montgomery multiplication, and every
 * inverse is x^(p-2) on it.  Each entry point takes its affine inputs into
 * Montgomery form and its affine outputs out of it; table entries and
 * the multiplies' Jacobian results, which only the kernel reads, stay in it.
 *
 * The accumulator of every scalar multiplication is Jacobian (X, Y, Z) to
 * avoid a field inversion per group operation, and every multiply leaves
 * its results so, X, Y and Z in Montgomery form.  eck_affine alone makes
 * points affine: it adds an optional affine addend to each and shares one
 * inversion among all of them (Montgomery's trick, jp_batch_affine).  k*P
 * is unique, so each method gives the point the pure-Python path computes:
 *   eck_mul            k * P_i for up to BATCH bases P_i, one scalar: a
 *                      15-entry table d * P_i per base, affine through one
 *                      inversion, then fixed 4-bit windows (four doublings,
 *                      a masked table scan, one mixed add);
 *   eck_base_table     the affine points d * 16^i * B for d = 1..15, one
 *                      row per 4-bit window, one inversion per row;
 *   eck_base_mul       k * B from that table: one mixed add per nonzero
 *                      window, no doublings and no inversion;
 *   eck_affine         J_i + Q_i for Jacobian results J_i of the two
 *                      multiplies and affine addends Q_i, all made affine
 *                      through one inversion: an encryption block's
 *                      (k*G, P_M + k*P_B), or decryption's c2 - s*c1 for
 *                      up to BATCH blocks;
 *   eck_encode_search  first x of a window with x^3 + ax + b a square, and
 *                      the smaller root, by r = rhs^((p+1)/4) for p = 3 mod 4.
 * Both table reads scan a whole row under a mask, so the digit picks no
 * memory address.  A zero digit still skips its add, and the special cases
 * of jp_double and jp_add_affine still branch.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXL 9
#define MAXKL 64

typedef uint64_t u64;
typedef __uint128_t u128;

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

typedef struct {
    int nl;          /* limbs in p */
    u64 p[MAXL];
    u64 pinv;        /* -p^-1 mod 2^64 */
    u64 one[MAXL];   /* R mod p, R = 2^(64*nl): 1 in Montgomery form */
    u64 r2[MAXL];    /* R^2 mod p, which takes a value into Montgomery form */
    u64 a[MAXL];     /* curve coefficient, Montgomery form */
    int a_zero;
} ecctx;

static const u64 unit[MAXL] = {1};  /* plain 1; a Montgomery multiply by it leaves the form */

/* ---- limb vector helpers (length nl unless stated) ---- */

static void vset(u64 *r, const u64 *x, int nl) { memcpy(r, x, (size_t)nl * 8); }
static void vzero(u64 *r, int nl) { memset(r, 0, (size_t)nl * 8); }

static int vis_zero(const u64 *x, int nl) {
    u64 acc = 0;
    for (int i = 0; i < nl; i++) acc |= x[i];
    return acc == 0;
}

static int vcmp(const u64 *x, const u64 *y, int nl) {
    for (int i = nl - 1; i >= 0; i--) {
        if (x[i] != y[i]) return x[i] < y[i] ? -1 : 1;
    }
    return 0;
}

static u64 vadd(u64 *r, const u64 *x, const u64 *y, int nl) {
    u64 carry = 0;
    for (int i = 0; i < nl; i++) {
        u128 t = (u128)x[i] + y[i] + carry;
        r[i] = (u64)t;
        carry = (u64)(t >> 64);
    }
    return carry;
}

static u64 vsub(u64 *r, const u64 *x, const u64 *y, int nl) {
    u64 borrow = 0;
    for (int i = 0; i < nl; i++) {
        u128 t = (u128)x[i] - y[i] - borrow;
        r[i] = (u64)t;
        borrow = (u64)(t >> 64) & 1;
    }
    return borrow;
}

/* ---- modular helpers: operands already reduced below p ---- */

static void mod_add(const ecctx *c, u64 *r, const u64 *x, const u64 *y) {
    u64 carry = vadd(r, x, y, c->nl);
    if (carry || vcmp(r, c->p, c->nl) >= 0) vsub(r, r, c->p, c->nl);
}

static void mod_sub(const ecctx *c, u64 *r, const u64 *x, const u64 *y) {
    if (vsub(r, x, y, c->nl)) vadd(r, r, c->p, c->nl);
}

static void mod_dbl(const ecctx *c, u64 *r, const u64 *x) { mod_add(c, r, x, x); }

/* r = x * y / R mod p, CIOS Montgomery multiplication (Koc, Acar and
 * Kaliski, IEEE Micro 1996).  Each pass adds x * y[i], then the multiple
 * m * p that clears the low word, and shifts that word out.  For x, y < p
 * the sum ends below 2p, so one masked subtraction finishes it.  x, p and
 * pinv are copied to locals, since r may alias x or y, and every loop is
 * unrolled: for a limb count known at compile time the compiler then keeps
 * t, x and p in registers (about 49 -> 35 ns per dependent 4-limb multiply
 * with gcc 12, against the rolled loops). */
static inline __attribute__((always_inline))
void mont_mul(const ecctx *c, u64 *r, const u64 *x, const u64 *y, int nl) {
    u64 xs[MAXL] = {0}, ps[MAXL] = {0}, t[MAXL + 2] = {0}, d[MAXL] = {0};
    const u64 pinv = c->pinv;

    #pragma GCC unroll 9
    for (int j = 0; j < nl; j++) {
        xs[j] = x[j];
        ps[j] = c->p[j];
    }
    #pragma GCC unroll 9
    for (int i = 0; i < nl; i++) {
        u64 yi = y[i], carry = 0;
        #pragma GCC unroll 9
        for (int j = 0; j < nl; j++) {
            u128 s = (u128)xs[j] * yi + t[j] + carry;
            t[j] = (u64)s;
            carry = (u64)(s >> 64);
        }
        u128 s = (u128)t[nl] + carry;
        t[nl] = (u64)s;
        t[nl + 1] = (u64)(s >> 64);

        u64 m = t[0] * pinv;  /* t + m*p is divisible by 2^64 */
        carry = (u64)(((u128)m * ps[0] + t[0]) >> 64);
        #pragma GCC unroll 9
        for (int j = 1; j < nl; j++) {
            s = (u128)m * ps[j] + t[j] + carry;
            t[j - 1] = (u64)s;
            carry = (u64)(s >> 64);
        }
        s = (u128)t[nl] + carry;
        t[nl - 1] = (u64)s;
        t[nl] = t[nl + 1] + (u64)(s >> 64);
    }
    /* t < 2p: keep t - p unless it borrowed past t's top word */
    u64 borrow = 0;
    #pragma GCC unroll 9
    for (int i = 0; i < nl; i++) {
        u128 s = (u128)t[i] - ps[i] - borrow;
        d[i] = (u64)s;
        borrow = (u64)(s >> 64) & 1;
    }
    u64 keep = 0 - (u64)(borrow > t[nl]);
    #pragma GCC unroll 9
    for (int i = 0; i < nl; i++) r[i] = (t[i] & keep) | (d[i] & ~keep);
}

/* The one field multiply.  The 4-limb case gets its limb count as a
 * compile-time constant, so 256-bit curves run fully unrolled loops. */
static void mod_mul(const ecctx *c, u64 *r, const u64 *x, const u64 *y) {
    switch (c->nl) {
    case 4: mont_mul(c, r, x, y, 4); break;
    default: mont_mul(c, r, x, y, c->nl); break;
    }
}

static void mod_sqr(const ecctx *c, u64 *r, const u64 *x) { mod_mul(c, r, x, x); }

static void to_mont(const ecctx *c, u64 *r, const u64 *x) { mod_mul(c, r, x, c->r2); }
static void from_mont(const ecctx *c, u64 *r, const u64 *x) { mod_mul(c, r, x, unit); }

/* r = x^e mod p by fixed 4-bit windows; the exponent e (nl limbs) is public */
static void mod_pow(const ecctx *c, u64 *r, const u64 *x, const u64 *e) {
    int nl = c->nl, started = 0;
    u64 pw[16][MAXL];

    vset(pw[0], c->one, nl);
    for (int d = 1; d < 16; d++) mod_mul(c, pw[d], pw[d - 1], x);
    vset(r, pw[0], nl);
    for (int i = 16 * nl - 1; i >= 0; i--) {
        unsigned digit = (unsigned)(e[i / 16] >> (4 * (i % 16))) & 15;
        if (started) {
            for (int s = 0; s < 4; s++) mod_sqr(c, r, r);
        }
        if (digit) {
            mod_mul(c, r, r, pw[digit]);
            started = 1;
        }
    }
}

/* r = x^-1 = x^(p-2) mod p (Fermat).  Needs p prime, which the Python side
 * checks for every curve, and x nonzero mod p: then the result is the
 * inverse, and no input makes the exponentiation fail. */
static void mod_inv(const ecctx *c, u64 *r, const u64 *x) {
    u64 e[MAXL] = {0}, two[MAXL] = {2};
    vsub(e, c->p, two, c->nl);
    mod_pow(c, r, x, e);
}

static void ctx_init(ecctx *c, const u64 *p, int nl, const u64 *a) {
    c->nl = nl;
    vset(c->p, p, nl);

    /* Newton's iteration doubles the correct low bits: 3, 6, ..., 96 */
    u64 inv = p[0];
    for (int i = 0; i < 5; i++) inv *= 2 - p[0] * inv;
    c->pinv = 0 - inv;

    /* one = R mod p: double the top bit of p up to bit 64*nl */
    int top = 64 * nl - __builtin_clzll(p[nl - 1]) - 1;
    vzero(c->one, nl);
    c->one[top / 64] = (u64)1 << (top % 64);
    for (int i = top; i < 64 * nl; i++) mod_dbl(c, c->one, c->one);

    /* r2 = R^2 mod p: 2^nl in Montgomery form, squared six times, is 2^(64*nl) */
    vset(c->r2, c->one, nl);
    for (int i = 0; i < nl; i++) mod_dbl(c, c->r2, c->r2);
    for (int i = 0; i < 6; i++) mod_sqr(c, c->r2, c->r2);

    to_mont(c, c->a, a);
    c->a_zero = vis_zero(a, nl);
}

/* ---- Jacobian point arithmetic; identity is Z == 0 ---- */

typedef struct { u64 X[MAXL], Y[MAXL], Z[MAXL]; } jpoint;

static void jp_set_inf(jpoint *r, int nl) { vzero(r->Z, nl); }  /* X, Y unread */

static int jp_is_inf(const jpoint *q, int nl) { return vis_zero(q->Z, nl); }

static void jp_double(const ecctx *c, jpoint *r, const jpoint *q) {
    int nl = c->nl;
    u64 xx[MAXL], yy[MAXL], yyyy[MAXL], zz[MAXL];
    u64 s[MAXL], m[MAXL], t[MAXL], t2[MAXL];

    if (jp_is_inf(q, nl) || vis_zero(q->Y, nl)) {
        jp_set_inf(r, nl);
        return;
    }

    mod_sqr(c, xx, q->X);
    mod_sqr(c, yy, q->Y);
    mod_sqr(c, yyyy, yy);
    mod_sqr(c, zz, q->Z);

    /* S = 2*((X+YY)^2 - XX - YYYY) */
    mod_add(c, t, q->X, yy);
    mod_sqr(c, t, t);
    mod_sub(c, t, t, xx);
    mod_sub(c, t, t, yyyy);
    mod_dbl(c, s, t);

    /* M = 3*XX + a*ZZ^2 */
    mod_dbl(c, m, xx);
    mod_add(c, m, m, xx);
    if (!c->a_zero) {
        mod_sqr(c, t, zz);
        mod_mul(c, t, t, c->a);
        mod_add(c, m, m, t);
    }

    /* X3 = M^2 - 2*S */
    mod_sqr(c, t, m);
    mod_sub(c, t, t, s);
    mod_sub(c, t, t, s);

    /* Z3 = (Y+Z)^2 - YY - ZZ  (computed before X/Y clobber q aliasing) */
    mod_add(c, t2, q->Y, q->Z);
    mod_sqr(c, t2, t2);
    mod_sub(c, t2, t2, yy);
    mod_sub(c, t2, t2, zz);
    vset(r->Z, t2, nl);

    /* Y3 = M*(S - X3) - 8*YYYY */
    mod_sub(c, s, s, t);
    mod_mul(c, s, s, m);
    mod_dbl(c, t2, yyyy);
    mod_dbl(c, t2, t2);
    mod_dbl(c, t2, t2);
    mod_sub(c, r->Y, s, t2);

    vset(r->X, t, nl);
}

/* r = q + (x2, y2) with (x2, y2) affine and on the curve */
static void jp_add_affine(const ecctx *c, jpoint *r, const jpoint *q,
                          const u64 *x2, const u64 *y2) {
    int nl = c->nl;
    u64 z1z1[MAXL], u2[MAXL], s2[MAXL];
    u64 h[MAXL], hh[MAXL], ii[MAXL], j[MAXL], rr[MAXL], v[MAXL];
    u64 t[MAXL], t2[MAXL];

    if (jp_is_inf(q, nl)) {
        vset(r->X, x2, nl);
        vset(r->Y, y2, nl);
        vset(r->Z, c->one, nl);
        return;
    }

    mod_sqr(c, z1z1, q->Z);
    mod_mul(c, u2, x2, z1z1);
    mod_mul(c, s2, y2, q->Z);
    mod_mul(c, s2, s2, z1z1);

    if (vcmp(u2, q->X, nl) == 0) {
        if (vcmp(s2, q->Y, nl) == 0) {
            jp_double(c, r, q);
        } else {
            jp_set_inf(r, nl);
        }
        return;
    }

    mod_sub(c, h, u2, q->X);
    mod_sqr(c, hh, h);
    mod_dbl(c, ii, hh);
    mod_dbl(c, ii, ii);            /* I = 4*HH */
    mod_mul(c, j, h, ii);
    mod_sub(c, rr, s2, q->Y);
    mod_dbl(c, rr, rr);            /* r = 2*(S2 - Y1) */
    mod_mul(c, v, q->X, ii);

    /* X3 = r^2 - J - 2*V */
    mod_sqr(c, t, rr);
    mod_sub(c, t, t, j);
    mod_sub(c, t, t, v);
    mod_sub(c, t, t, v);

    /* Z3 = (Z1 + H)^2 - Z1Z1 - HH */
    mod_add(c, t2, q->Z, h);
    mod_sqr(c, t2, t2);
    mod_sub(c, t2, t2, z1z1);
    mod_sub(c, t2, t2, hh);
    vset(r->Z, t2, nl);

    /* Y3 = r*(V - X3) - 2*Y1*J */
    mod_sub(c, v, v, t);
    mod_mul(c, v, v, rr);
    mod_mul(c, j, j, q->Y);
    mod_dbl(c, j, j);
    mod_sub(c, r->Y, v, j);

    vset(r->X, t, nl);
}

/* ---- affine entries, tables and windows ----
 *
 * Tables, inputs and outputs share one entry layout of el = 2*nl + 1
 * limbs: x, y, then 1 when the point is the identity (x, y zero) and 0
 * otherwise. */

#define WIN 15    /* nonzero digits of a 4-bit window */
#define BATCH 64  /* the cap on points per eck_mul and eck_affine call */

/* The n points of q as affine entries, through one inversion (Montgomery's
 * trick, Z = 0 counted as 1).  x and y stay in Montgomery form unless
 * `plain` is set.  pre is scratch of n * nl limbs. */
static void jp_batch_affine(const ecctx *c, const jpoint *q, int n, u64 *out,
                            u64 *pre, int plain) {
    int nl = c->nl, el = 2 * nl + 1;
    u64 inv[MAXL], zi[MAXL], zi2[MAXL];

    for (int d = 0; d < n; d++) {
        const u64 *z = jp_is_inf(&q[d], nl) ? c->one : q[d].Z;
        if (d == 0) vset(pre, z, nl);
        else mod_mul(c, pre + (size_t)d * nl, pre + (size_t)(d - 1) * nl, z);
    }
    mod_inv(c, inv, pre + (size_t)(n - 1) * nl);  /* 1 / (Z_0 ... Z_n-1) */
    for (int d = n - 1; d >= 0; d--) {
        u64 *x = out + (size_t)d * el, *y = x + nl;
        int inf = jp_is_inf(&q[d], nl);
        if (d > 0) mod_mul(c, zi, inv, pre + (size_t)(d - 1) * nl);  /* 1 / Z_d */
        else vset(zi, inv, nl);
        if (inf) {
            vzero(x, 2 * nl);
        } else {
            mod_mul(c, inv, inv, q[d].Z);
            mod_sqr(c, zi2, zi);
            mod_mul(c, x, q[d].X, zi2);
            mod_mul(c, zi2, zi2, zi);
            mod_mul(c, y, q[d].Y, zi2);
            if (plain) {
                from_mont(c, x, x);
                from_mont(c, y, y);
            }
        }
        x[2 * nl] = (u64)inf;
    }
}

/* row[d - 1] = d * B for d = 1..15, B = (x, y) affine in Montgomery form,
 * as O + B and then 14 mixed additions; all identities when inf is set. */
static void jp_row(const ecctx *c, jpoint *row, const u64 *x, const u64 *y, int inf) {
    for (int d = 0; d < WIN; d++) {
        jp_set_inf(&row[d], c->nl);
        if (!inf) jp_add_affine(c, &row[d], &row[d ? d - 1 : 0], x, y);
    }
}

/* acc += digit * B for the 15 entries d * B (d = 1..15) of one table row.
 * The whole row is read under a mask, so the digit picks no address. */
static void jp_add_digit(const ecctx *c, jpoint *acc, const u64 *entries, u64 digit) {
    int nl = c->nl, el = 2 * nl + 1;
    u64 sel[2 * MAXL + 1] = {0};

    for (int d = 0; d < WIN; d++) {
        u64 mask = 0 - ((((u64)(d + 1) ^ digit) - 1) >> 63);  /* all ones iff d+1 == digit */
        for (int t = 0; t < el; t++) sel[t] |= entries[d * el + t] & mask;
    }
    if (digit != 0 && !sel[2 * nl]) jp_add_affine(c, acc, acc, sel, sel + nl);
}

/* q as 3 * nl limbs of out: X, Y, Z in Montgomery form; all zero for O */
static void jp_store(const ecctx *c, u64 *out, const jpoint *q) {
    vset(out, q->X, c->nl);
    vset(out + c->nl, q->Y, c->nl);
    vset(out + 2 * c->nl, q->Z, c->nl);
    if (jp_is_inf(q, c->nl)) vzero(out, 3 * c->nl);  /* X, Y may be stale */
}

/* k * P_i for the `count` plain entries P_i of pts, count at most BATCH,
 * left Jacobian in jac as eck_base_mul leaves its result (3 * nl limbs per
 * point).  k has (windows + 15) / 16 limbs, of which `windows` 4-bit
 * windows are read, so the caller fixes the loop count from public widths.
 * Each base gets a table d * P_i, d = 1..15, and all the tables become
 * affine through one inversion; each window then takes four doublings, a
 * masked scan of the table and one mixed add.  Returns 0, -1 on invalid
 * arguments, -2 when scratch memory cannot be had. */
EXPORT int eck_mul(const u64 *p, int nl, const u64 *a, const u64 *k, int windows,
                   int count, const u64 *pts, u64 *jac) {
    ecctx ctx;
    int el = 2 * nl + 1;

    if (nl < 1 || nl > MAXL || count < 1 || count > BATCH
        || windows < 1 || windows > 16 * MAXKL) return -1;
    size_t m = (size_t)count * WIN;  /* table entries */
    jpoint *rows = malloc(m * (sizeof *rows + (size_t)(el + nl) * sizeof(u64)));
    if (!rows) return -2;
    u64 *tab = (u64 *)(rows + m), *pre = tab + m * el;
    ctx_init(&ctx, p, nl, a);

    for (int i = 0; i < count; i++) {  /* row i: d * P_i for d = 1..15 */
        const u64 *in = pts + (size_t)i * el;
        u64 x[MAXL], y[MAXL];
        to_mont(&ctx, x, in);
        to_mont(&ctx, y, in + nl);
        jp_row(&ctx, rows + (size_t)i * WIN, x, y, (int)in[2 * nl]);
    }
    jp_batch_affine(&ctx, rows, count * WIN, tab, pre, 0);

    for (int i = 0; i < count; i++) {
        jpoint acc;
        jp_set_inf(&acc, nl);
        for (int w = windows - 1; w >= 0; w--) {
            for (int s = 0; s < 4; s++) jp_double(&ctx, &acc, &acc);
            jp_add_digit(&ctx, &acc, tab + (size_t)i * WIN * el,
                         (k[w / 16] >> (4 * (w % 16))) & 15);
        }
        jp_store(&ctx, jac + (size_t)i * 3 * nl, &acc);
    }
    free(rows);
    return 0;
}

/* ---- fixed-base table: 4-bit windows, affine entries ----
 *
 * Row i holds the entries d * 16^i * G for d = 1..15, x and y in
 * Montgomery form.  A table of `rows` rows serves every k < 16^rows. */

EXPORT int eck_base_table(const u64 *p, int nl, const u64 *a,
                          const u64 *gx, const u64 *gy, int rows, u64 *table) {
    ecctx ctx;
    jpoint pts[WIN + 1];  /* d * B for d = 1..16, B = 16^row * G */
    u64 aff[(WIN + 1) * (2 * MAXL + 1)], pre[(WIN + 1) * MAXL];
    u64 bx[MAXL], by[MAXL];
    int binf = 0, el = 2 * nl + 1;

    if (nl < 1 || nl > MAXL || rows < 1) return -1;
    ctx_init(&ctx, p, nl, a);
    to_mont(&ctx, bx, gx);
    to_mont(&ctx, by, gy);

    for (int row = 0; row < rows; row++) {
        jp_row(&ctx, pts, bx, by, binf);
        jp_double(&ctx, &pts[WIN], &pts[7]);  /* 16 * B, the next row's base */
        jp_batch_affine(&ctx, pts, WIN + 1, aff, pre, 0);
        memcpy(table + (size_t)row * WIN * el, aff, (size_t)WIN * el * sizeof *aff);
        vset(bx, aff + WIN * el, nl);
        vset(by, aff + WIN * el + nl, nl);
        binf = (int)aff[WIN * el + 2 * nl];
    }
    return 0;
}

/* k * B from a table of eck_base_table; k has (rows + 15) / 16 limbs and
 * k < 16^rows.  The result stays Jacobian: jac gets X, Y and Z, nl limbs
 * each in Montgomery form, all zero for the identity.  Returns 0, or -1
 * on invalid arguments. */
EXPORT int eck_base_mul(const u64 *p, int nl, const u64 *a,
                        const u64 *table, int rows, const u64 *k, u64 *jac) {
    ecctx ctx;
    jpoint acc;
    int el = 2 * nl + 1;

    if (nl < 1 || nl > MAXL || rows < 1) return -1;
    ctx_init(&ctx, p, nl, a);
    jp_set_inf(&acc, nl);
    for (int row = 0; row < rows; row++) {
        jp_add_digit(&ctx, &acc, table + (size_t)row * WIN * el,
                     (k[row / 16] >> (4 * (row % 16))) & 15);
    }
    jp_store(&ctx, jac, &acc);
    return 0;
}

/* out_i = J_i + Q_i for the `count` Jacobian points J_i of jac, laid out as
 * eck_mul and eck_base_mul write them, and the plain entries Q_i of adds
 * (NULL: no addend), as plain entries through one inversion.  count is at
 * most BATCH.  Returns 0, or -1 on invalid arguments. */
EXPORT int eck_affine(const u64 *p, int nl, const u64 *a, int count,
                      const u64 *jac, const u64 *adds, u64 *out) {
    ecctx ctx;
    jpoint q[BATCH];
    u64 pre[BATCH * MAXL];
    int el = 2 * nl + 1;

    if (nl < 1 || nl > MAXL || count < 1 || count > BATCH) return -1;
    ctx_init(&ctx, p, nl, a);
    for (int i = 0; i < count; i++) {
        const u64 *in = jac + (size_t)i * 3 * nl;
        vset(q[i].X, in, nl);
        vset(q[i].Y, in + nl, nl);
        vset(q[i].Z, in + 2 * nl, nl);
        if (adds && !adds[(size_t)i * el + 2 * nl]) {
            u64 x[MAXL], y[MAXL];
            to_mont(&ctx, x, adds + (size_t)i * el);
            to_mont(&ctx, y, adds + (size_t)i * el + nl);
            jp_add_affine(&ctx, &q[i], &q[i], x, y);
        }
    }
    jp_batch_affine(&ctx, q, count, out, pre, 1);
    return 0;
}

/* ---- the codec's x-window search ---- */

/* First x in [x0, x0 + count) with rhs = x^3 + ax + b a square mod p, and
 * y the smaller of its roots r, p - r (y = 0 when rhs = 0).  Needs
 * p = 3 mod 4, where r = rhs^((p+1)/4) is a root exactly when r^2 = rhs,
 * and b reduced mod p.  Returns 0 with (rx, ry) set, 1 when no x of the
 * window qualifies, -1 on invalid arguments or a window reaching p.
 * x walks in both domains: plain for the bound and the result, Montgomery
 * form (xm) for the arithmetic. */
EXPORT int eck_encode_search(const u64 *p, int nl, const u64 *a, const u64 *b,
                             const u64 *x0, u64 count, u64 *rx, u64 *ry) {
    ecctx ctx;
    u64 e[MAXL], x[MAXL], xm[MAXL], bm[MAXL], rhs[MAXL], r[MAXL], t[MAXL];

    if (nl < 1 || nl > MAXL || (p[0] & 3) != 3) return -1;
    ctx_init(&ctx, p, nl, a);
    to_mont(&ctx, bm, b);

    /* e = (p + 1) / 4, the carry out of p + 1 kept as bit 64*nl */
    u64 carry = vadd(e, p, unit, nl);
    for (int i = 0; i < nl; i++) {
        u64 next = i + 1 < nl ? e[i + 1] : carry;
        e[i] = (e[i] >> 2) | (next << 62);
    }

    vset(x, x0, nl);
    to_mont(&ctx, xm, x);
    for (u64 i = 0; i < count; i++) {
        if (vcmp(x, p, nl) >= 0) return -1;
        mod_sqr(&ctx, rhs, xm);
        mod_add(&ctx, rhs, rhs, ctx.a);
        mod_mul(&ctx, rhs, rhs, xm);
        mod_add(&ctx, rhs, rhs, bm);
        mod_pow(&ctx, r, rhs, e);
        mod_sqr(&ctx, t, r);
        if (vcmp(t, rhs, nl) == 0) {
            from_mont(&ctx, r, r);
            vset(rx, x, nl);
            vsub(t, p, r, nl);
            vset(ry, !vis_zero(r, nl) && vcmp(t, r, nl) < 0 ? t : r, nl);
            return 0;
        }
        vadd(x, x, unit, nl);
        mod_add(&ctx, xm, xm, ctx.one);
    }
    return 1;
}

/* Test entry point for the field arithmetic: xy = x * y mod p and
 * xinv = x^(p-2) mod p (the inverse for x != 0), for plain x, y < p,
 * through Montgomery form and back.  Returns -1 on invalid arguments. */
EXPORT int eck_field_check(const u64 *p, int nl, const u64 *x, const u64 *y,
                           u64 *xy, u64 *xinv) {
    static const u64 zero[MAXL];
    ecctx ctx;
    u64 xm[MAXL], ym[MAXL];

    if (nl < 1 || nl > MAXL || !(p[0] & 1)) return -1;
    ctx_init(&ctx, p, nl, zero);
    to_mont(&ctx, xm, x);
    to_mont(&ctx, ym, y);
    mod_mul(&ctx, xy, xm, ym);
    from_mont(&ctx, xy, xy);
    mod_inv(&ctx, xinv, xm);
    from_mont(&ctx, xinv, xinv);
    return 0;
}

/* Sanity probe used by the loader to verify the library works: computes
 * 2*(3,10) on y^2 = x^3 + x + 1 over F_23 and checks the result is (7,12). */
EXPORT int eck_selftest(void) {
    u64 p = 23, a = 1, k = 2, pt[3] = {3, 10, 0}, jac[3], r[3] = {0};
    if (eck_mul(&p, 1, &a, &k, 1, 1, pt, jac) != 0) return 1;
    if (eck_affine(&p, 1, &a, 1, jac, NULL, r) != 0) return 1;
    return (r[0] == 7 && r[1] == 12 && r[2] == 0) ? 0 : 2;
}

#ifdef ECK_BENCH_MAIN
/* cc -O3 -DECK_BENCH_MAIN -o eck_bench src/ecelgamal/_kernel.c && ./eck_bench */
#include <stdio.h>
#include <time.h>

static double now_us(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
}

/* µs per point of eck_mul at count 1 and at count 64, per fixed-base k*G,
 * per point of eck_affine for two points with an addend on one (an
 * encryption block's add stage) and for 64 points with addends
 * (decryption's finish of a chunk), and per 32-candidate encode search, on
 * one 4-limb curve; every result of a multiply is left Jacobian */
static void bench_curve(const char *label, const u64 *p, const u64 *a, const u64 *b,
                        const u64 *gx, const u64 *gy, int iters) {
    enum { EL = 9, JL = 12 };
    static u64 table[64 * WIN * 9], pts[BATCH * EL], jac[BATCH * JL], out[BATCH * EL];
    u64 k[4] = {0x0011223344556677ULL, 0x6789ABCDEF001122ULL,
                0x0ADC0DE0DEADBEEFULL, 0x0C0FFEE0FACADE0BULL};
    u64 rx[4], ry[4], x0[4] = {0, 0, 0, 0}, adds[2 * EL] = {0};
    for (int i = 0; i < BATCH; i++) {
        memcpy(pts + i * EL, gx, 32);
        memcpy(pts + i * EL + 4, gy, 32);
    }
    double t0 = now_us();
    for (int i = 0; i < iters; i++) {
        k[0] += 1;
        eck_mul(p, 4, a, k, 64, 1, pts, jac);
    }
    double single = (now_us() - t0) / iters;

    int rounds = iters / 32 + 1;
    t0 = now_us();
    for (int i = 0; i < rounds; i++) {
        k[0] += 1;
        eck_mul(p, 4, a, k, 64, BATCH, pts, jac);
    }
    double batch = (now_us() - t0) / rounds / BATCH;

    t0 = now_us();
    for (int i = 0; i < rounds; i++) eck_affine(p, 4, a, BATCH, jac, pts, out);
    double chunk = (now_us() - t0) / rounds / BATCH;

    t0 = now_us();
    eck_base_table(p, 4, a, gx, gy, 64, table);
    double build = now_us() - t0;
    t0 = now_us();
    for (int i = 0; i < iters; i++) {
        k[0] += 1;
        eck_base_mul(p, 4, a, table, 64, k, jac + JL * (i & 1));
    }
    double fixed = (now_us() - t0) / iters;

    adds[EL - 1] = 1;                       /* c1: no addend */
    memcpy(adds + EL, out + EL, 8 * EL);    /* c2: an affine point of the chunk */
    t0 = now_us();
    for (int i = 0; i < iters; i++) eck_affine(p, 4, a, 2, jac, adds, out);
    double block = (now_us() - t0) / iters;

    t0 = now_us();
    for (int i = 0; i < iters; i++) {
        x0[0] = (u64)i * 32;
        eck_encode_search(p, 4, a, b, x0, 32, rx, ry);
    }
    double encode = (now_us() - t0) / iters;
    printf("%s: mul %.1f us/point at count 1, %.1f us/point at count %d; "
           "affine of %d with addends %.1f us/point; "
           "base-table k*G %.1f us (table build %.0f us); "
           "affine of 2 with an addend %.1f us; encode search %.1f us\n",
           label, single, batch, BATCH, BATCH, chunk, fixed, build, block, encode);
}

int main(void) {
    printf("selftest: %d\n", eck_selftest());

    u64 p[4] = {0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL,
                0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL};
    u64 a[4] = {0, 0, 0, 0};
    u64 b[4] = {7, 0, 0, 0};
    u64 gx[4] = {0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                 0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL};
    u64 gy[4] = {0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                 0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL};
    bench_curve("secp256k1", p, a, b, gx, gy, 2000);

    u64 pr[4] = {0xFFFFFFFFFFFFFFFFULL, 0x00000000FFFFFFFFULL,
                 0x0000000000000000ULL, 0xFFFFFFFF00000001ULL};
    u64 ar[4] = {0xFFFFFFFFFFFFFFFCULL, 0x00000000FFFFFFFFULL,
                 0x0000000000000000ULL, 0xFFFFFFFF00000001ULL};
    u64 br[4] = {0x3BCE3C3E27D2604BULL, 0x651D06B0CC53B0F6ULL,
                 0xB3EBBD55769886BCULL, 0x5AC635D8AA3A93E7ULL};
    u64 grx[4] = {0xF4A13945D898C296ULL, 0x77037D812DEB33A0ULL,
                  0xF8BCE6E563A440F2ULL, 0x6B17D1F2E12C4247ULL};
    u64 gry[4] = {0xCBB6406837BF51F5ULL, 0x2BCE33576B315ECEULL,
                  0x8EE7EB4A7C0F9E16ULL, 0x4FE342E2FE1A7F9BULL};
    bench_curve("secp256r1", pr, ar, br, grx, gry, 500);
    return 0;
}
#endif
