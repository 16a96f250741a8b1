/* Elliptic-curve kernel over prime fields: scalar multiplication, a
 * fixed-base table for k*G, and the x-window residue search of the codec.
 *
 * Plain C, no libpython dependency: the Python side loads this as a shared
 * library through ctypes, so calls release the GIL and two worker threads
 * can genuinely run on two cores.
 *
 * Values are little-endian arrays of 64-bit limbs.  Moduli up to 9 limbs
 * (576 bits) are supported, which covers every curve the package ships.
 * Reduction is plain schoolbook division (Knuth D); moduli of the shape
 * 2^(64*n) - c with c < 2^64 take a cheaper fold-the-high-half path.
 *
 * The accumulator of every scalar multiplication is Jacobian (X, Y, Z) to
 * avoid a field inversion per group operation; inputs and outputs are
 * affine.  k*P is unique, so each method gives the point the pure-Python
 * path computes:
 *   eck_scalar_mul     k * P by double-and-add, for any base;
 *   eck_base_table     the affine points d * 16^i * G for d = 1..15, one
 *                      row per 4-bit window, one inversion per row;
 *   eck_base_mul       k * G from that table: one mixed add per nonzero
 *                      window and no doublings, each row read by a full
 *                      masked scan so the digit picks no memory address;
 *   eck_encode_search  first x of a window with x^3 + ax + b a square, and
 *                      the smaller root, by r = rhs^((p+1)/4) for p = 3 mod 4.
 */

#include <stdint.h>
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
    int special;     /* p == 2^(64*nl) - c with c < 2^64 */
    u64 c;           /* fold constant when special */
    int shift;       /* normalization shift for division */
    u64 p[MAXL];
    u64 pn[MAXL];    /* p << shift */
    u64 a[MAXL];     /* curve coefficient, reduced mod p */
    int a_zero;
} ecctx;

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

/* r = x * m + carry-in propagation; x has nl limbs, r gets nl+1 */
static void vmul1(u64 *r, const u64 *x, u64 m, int nl) {
    u64 carry = 0;
    for (int i = 0; i < nl; i++) {
        u128 t = (u128)x[i] * m + carry;
        r[i] = (u64)t;
        carry = (u64)(t >> 64);
    }
    r[nl] = carry;
}

static int clz64(u64 x) {
    int n = 0;
    if (x == 0) return 64;
    while (!(x >> 63)) { x <<= 1; n++; }
    return n;
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

/* t has 2*nl limbs; reduce mod p into r via fold: 2^(64*nl) == c (mod p) */
static void red_fold(const ecctx *c, const u64 *t, u64 *r) {
    int nl = c->nl;
    u64 hi[MAXL + 1], acc[MAXL + 1];

    vmul1(hi, t + nl, c->c, nl);               /* hi = H*c, nl+1 limbs */
    acc[nl] = hi[nl] + vadd(acc, t, hi, nl);   /* acc = L + H*c */
    while (acc[nl]) {
        u128 f = (u128)acc[nl] * c->c;
        acc[nl] = 0;
        u64 add0 = (u64)f, add1 = (u64)(f >> 64);
        u128 s = (u128)acc[0] + add0;
        acc[0] = (u64)s;
        u64 carry = (u64)(s >> 64);
        for (int i = 1; i < nl && (carry || add1); i++) {
            s = (u128)acc[i] + carry + (i == 1 ? add1 : 0);
            acc[i] = (u64)s;
            carry = (u64)(s >> 64);
            if (i == 1) add1 = 0;
        }
        acc[nl] += carry;
    }
    while (vcmp(acc, c->p, nl) >= 0) vsub(acc, acc, c->p, nl);
    vset(r, acc, nl);
}

/* t has tn limbs; reduce mod p into r by schoolbook long division */
static void red_div(const ecctx *c, const u64 *t, int tn, u64 *r) {
    int nl = c->nl, s = c->shift;
    u64 u[2 * MAXL + 2];
    int un;

    /* normalize: u = t << s */
    if (s == 0) {
        vset(u, t, tn);
        u[tn] = 0;
    } else {
        u64 carry = 0;
        for (int i = 0; i < tn; i++) {
            u[i] = (t[i] << s) | carry;
            carry = t[i] >> (64 - s);
        }
        u[tn] = carry;
    }
    un = tn + 1;

    const u64 *d = c->pn;
    u64 dtop = d[nl - 1];
    u64 dnext = nl >= 2 ? d[nl - 2] : 0;

    for (int j = un - 1; j >= nl; j--) {
        /* estimate quotient digit from the top two limbs */
        u128 num = ((u128)u[j] << 64) | u[j - 1];
        u64 qhat;
        if (u[j] >= dtop) {
            qhat = ~(u64)0;
        } else {
            qhat = (u64)(num / dtop);
        }
        u64 rhat = (u64)(num - (u128)qhat * dtop);
        /* refine */
        while ((u128)qhat * dnext > (((u128)rhat << 64) | (j >= 2 ? u[j - 2] : 0))) {
            qhat--;
            u128 nr = (u128)rhat + dtop;
            if (nr >> 64) break;
            rhat = (u64)nr;
        }
        /* u[j-nl .. j] -= qhat * d */
        u64 borrow = 0, mc = 0;
        for (int i = 0; i < nl; i++) {
            u128 prod = (u128)qhat * d[i] + mc;
            mc = (u64)(prod >> 64);
            u128 diff = (u128)u[j - nl + i] - (u64)prod - borrow;
            u[j - nl + i] = (u64)diff;
            borrow = (u64)(diff >> 64) & 1;
        }
        u128 diff = (u128)u[j] - mc - borrow;
        u[j] = (u64)diff;
        if ((diff >> 64) & 1) {
            /* qhat was one too large: add divisor back */
            u64 carry = 0;
            for (int i = 0; i < nl; i++) {
                u128 sum = (u128)u[j - nl + i] + d[i] + carry;
                u[j - nl + i] = (u64)sum;
                carry = (u64)(sum >> 64);
            }
            u[j] += carry;
        }
        u[j] = 0; /* quotient digit discarded; remainder stays below d */
    }

    /* denormalize remainder */
    if (s == 0) {
        vset(r, u, nl);
    } else {
        for (int i = 0; i < nl; i++) {
            u64 hi2 = (i + 1 < nl) ? u[i + 1] : 0;
            r[i] = (u[i] >> s) | (hi2 << (64 - s));
        }
    }
}

static void mod_mul(const ecctx *c, u64 *r, const u64 *x, const u64 *y) {
    int nl = c->nl;

    if (nl == 1) {
        r[0] = (u64)(((u128)x[0] * y[0]) % c->p[0]);
        return;
    }

    u64 t[2 * MAXL];
    vzero(t, 2 * nl);
    for (int i = 0; i < nl; i++) {
        u64 carry = 0;
        u64 xi = x[i];
        for (int j = 0; j < nl; j++) {
            u128 acc = (u128)xi * y[j] + t[i + j] + carry;
            t[i + j] = (u64)acc;
            carry = (u64)(acc >> 64);
        }
        t[i + nl] = carry;
    }

    if (c->special) red_fold(c, t, r);
    else red_div(c, t, 2 * nl, r);
}

static void mod_sqr(const ecctx *c, u64 *r, const u64 *x) { mod_mul(c, r, x, x); }

/* r = x^-1 mod p (binary extended gcd); x must be nonzero mod p, p odd */
static int mod_inv(const ecctx *c, u64 *r, const u64 *x) {
    int nl = c->nl;
    u64 a[MAXL], b[MAXL], u[MAXL], v[MAXL];

    vset(a, x, nl);
    vset(b, c->p, nl);
    vzero(u, nl); u[0] = 1;
    vzero(v, nl);

    while (!vis_zero(a, nl)) {
        while (!(a[0] & 1)) {
            /* a >>= 1 */
            for (int i = 0; i < nl - 1; i++) a[i] = (a[i] >> 1) | (a[i + 1] << 63);
            a[nl - 1] >>= 1;
            /* u = u/2 mod p */
            u64 carry = 0;
            if (u[0] & 1) carry = vadd(u, u, c->p, nl);
            for (int i = 0; i < nl - 1; i++) u[i] = (u[i] >> 1) | (u[i + 1] << 63);
            u[nl - 1] = (u[nl - 1] >> 1) | (carry << 63);
        }
        if (vcmp(a, b, nl) < 0) {
            u64 tmp[MAXL];
            vset(tmp, a, nl); vset(a, b, nl); vset(b, tmp, nl);
            vset(tmp, u, nl); vset(u, v, nl); vset(v, tmp, nl);
        }
        vsub(a, a, b, nl);
        mod_sub(c, u, u, v);
    }

    /* gcd in b must be 1 */
    u64 one_check = b[0] ^ 1;
    for (int i = 1; i < nl; i++) one_check |= b[i];
    if (one_check) return -1;
    vset(r, v, nl);
    return 0;
}

/* ---- Jacobian point arithmetic; identity is Z == 0 ---- */

typedef struct { u64 X[MAXL], Y[MAXL], Z[MAXL]; } jpoint;

static void jp_set_inf(jpoint *r, int nl) {
    vzero(r->X, nl); vzero(r->Y, nl); vzero(r->Z, nl);
    r->X[0] = 1; r->Y[0] = 1;
}

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
        vzero(r->Z, nl);
        r->Z[0] = 1;
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

static void ctx_init(ecctx *c, const u64 *p, int nl, const u64 *a) {
    c->nl = nl;
    vset(c->p, p, nl);
    vset(c->a, a, nl);
    c->a_zero = vis_zero(a, nl);

    c->special = 0;
    c->c = 0;
    if (nl >= 2) {
        int all_ones = 1;
        for (int i = 1; i < nl; i++) {
            if (p[i] != ~(u64)0) { all_ones = 0; break; }
        }
        if (all_ones && p[0] != 0) {
            c->special = 1;
            c->c = (u64)(0 - p[0]);
        }
    }

    c->shift = clz64(p[nl - 1]);
    if (c->shift == 0) {
        vset(c->pn, p, nl);
    } else {
        u64 carry = 0;
        for (int i = 0; i < nl; i++) {
            c->pn[i] = (p[i] << c->shift) | carry;
            carry = p[i] >> (64 - c->shift);
        }
    }
}

/* Affine (rx, ry) of q: 1 for the identity, -2 when Z has no inverse. */
static int jp_to_affine(const ecctx *c, const jpoint *q, u64 *rx, u64 *ry) {
    u64 zi[MAXL], zi2[MAXL];

    if (jp_is_inf(q, c->nl)) return 1;
    if (mod_inv(c, zi, q->Z) != 0) return -2;
    mod_sqr(c, zi2, zi);
    mod_mul(c, rx, q->X, zi2);
    mod_mul(c, zi2, zi2, zi);
    mod_mul(c, ry, q->Y, zi2);
    return 0;
}

/* k * (px, py) by MSB-first double-and-add over the bits of k.
 * Returns 1 when the result is the identity, 0 for an affine result
 * written to (rx, ry), negative on invalid arguments. */
EXPORT int eck_scalar_mul(const u64 *p, int nl, const u64 *a,
                          const u64 *k, int knl,
                          const u64 *px, const u64 *py, int pinf,
                          u64 *rx, u64 *ry) {
    ecctx ctx;
    jpoint acc;

    if (nl < 1 || nl > MAXL || knl < 0 || knl > MAXKL) return -1;

    ctx_init(&ctx, p, nl, a);

    if (pinf) return 1;

    /* locate top set bit of k */
    int top = -1;
    for (int i = knl - 1; i >= 0 && top < 0; i--) {
        if (k[i]) top = i * 64 + 63 - clz64(k[i]);
    }
    if (top < 0) return 1; /* k == 0 */

    jp_set_inf(&acc, nl);
    for (int bit = top; bit >= 0; bit--) {
        jp_double(&ctx, &acc, &acc);
        if ((k[bit / 64] >> (bit % 64)) & 1) {
            jp_add_affine(&ctx, &acc, &acc, px, py);
        }
    }
    return jp_to_affine(&ctx, &acc, rx, ry);
}

/* ---- fixed-base table: 4-bit windows, affine entries ----
 *
 * Row i holds d * 16^i * G for d = 1..15, each entry 2*nl + 1 limbs:
 * x, y, then 1 when the multiple is the identity (only on tiny groups)
 * and 0 otherwise.  A table of `rows` rows serves every k < 16^rows. */

#define WIN 15  /* nonzero digits of a 4-bit window */

EXPORT int eck_base_table(const u64 *p, int nl, const u64 *a,
                          const u64 *gx, const u64 *gy, int rows, u64 *table) {
    ecctx ctx;
    jpoint pts[WIN + 1];  /* d * B for d = 1..16, B = 16^row * G */
    u64 pre[WIN + 1][MAXL], inv[MAXL], zi[MAXL], zi2[MAXL], one[MAXL];
    u64 bx[MAXL], by[MAXL];
    int binf = 0, el = 2 * nl + 1;

    if (nl < 1 || nl > MAXL || rows < 1) return -1;
    ctx_init(&ctx, p, nl, a);
    vzero(one, nl); one[0] = 1;
    vset(bx, gx, nl);
    vset(by, gy, nl);

    for (int row = 0; row < rows; row++) {
        u64 *out = table + (size_t)row * WIN * el;
        if (binf) {  /* B = O, and so is every multiple of it */
            for (int d = 0; d < WIN; d++) {
                vzero(out + d * el, 2 * nl);
                out[d * el + 2 * nl] = 1;
            }
            continue;
        }
        vset(pts[0].X, bx, nl);
        vset(pts[0].Y, by, nl);
        vset(pts[0].Z, one, nl);
        for (int d = 1; d < WIN; d++) jp_add_affine(&ctx, &pts[d], &pts[d - 1], bx, by);
        jp_double(&ctx, &pts[WIN], &pts[7]);  /* 16 * B, the next row's base */

        /* Montgomery's trick: one inversion for the row, Z = 0 counted as 1 */
        for (int d = 0; d <= WIN; d++) {
            const u64 *z = jp_is_inf(&pts[d], nl) ? one : pts[d].Z;
            if (d == 0) vset(pre[0], z, nl);
            else mod_mul(&ctx, pre[d], pre[d - 1], z);
        }
        if (mod_inv(&ctx, inv, pre[WIN]) != 0) return -2;
        for (int d = WIN; d >= 0; d--) {
            int inf = jp_is_inf(&pts[d], nl);
            u64 *x = d < WIN ? out + d * el : bx;
            u64 *y = d < WIN ? x + nl : by;
            if (d > 0) mod_mul(&ctx, zi, inv, pre[d - 1]);  /* 1 / Z_d */
            else vset(zi, inv, nl);
            if (inf) {
                vzero(x, nl);
                vzero(y, nl);
            } else {
                mod_mul(&ctx, inv, inv, pts[d].Z);
                mod_sqr(&ctx, zi2, zi);
                mod_mul(&ctx, x, pts[d].X, zi2);
                mod_mul(&ctx, zi2, zi2, zi);
                mod_mul(&ctx, y, pts[d].Y, zi2);
            }
            if (d < WIN) out[d * el + 2 * nl] = (u64)inf;
            else binf = inf;
        }
    }
    return 0;
}

/* k * G from a table of eck_base_table; k has (rows + 15) / 16 limbs and
 * k < 16^rows.  Same return codes as eck_scalar_mul. */
EXPORT int eck_base_mul(const u64 *p, int nl, const u64 *a,
                        const u64 *table, int rows, const u64 *k,
                        u64 *rx, u64 *ry) {
    ecctx ctx;
    jpoint acc;
    u64 sel[2 * MAXL + 1];
    int el = 2 * nl + 1;

    if (nl < 1 || nl > MAXL || rows < 1) return -1;
    ctx_init(&ctx, p, nl, a);
    jp_set_inf(&acc, nl);

    for (int row = 0; row < rows; row++) {
        u64 digit = (k[row / 16] >> (4 * (row % 16))) & 15;
        const u64 *entries = table + (size_t)row * WIN * el;
        vzero(sel, el);
        for (int d = 0; d < WIN; d++) {
            u64 mask = 0 - ((((u64)(d + 1) ^ digit) - 1) >> 63);  /* all ones iff d+1 == digit */
            for (int t = 0; t < el; t++) sel[t] |= entries[d * el + t] & mask;
        }
        if (digit != 0 && !sel[2 * nl]) jp_add_affine(&ctx, &acc, &acc, sel, sel + nl);
    }
    return jp_to_affine(&ctx, &acc, rx, ry);
}

/* ---- the codec's x-window search ---- */

/* r = x^e mod p by fixed 4-bit windows; the exponent e (nl limbs) is public */
static void mod_pow(const ecctx *c, u64 *r, const u64 *x, const u64 *e) {
    int nl = c->nl, started = 0;
    u64 pw[16][MAXL];

    vzero(pw[0], nl);
    pw[0][0] = 1;
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

/* First x in [x0, x0 + count) with rhs = x^3 + ax + b a square mod p, and
 * y the smaller of its roots r, p - r (y = 0 when rhs = 0).  Needs
 * p = 3 mod 4, where r = rhs^((p+1)/4) is a root exactly when r^2 = rhs,
 * and b reduced mod p.  Returns 0 with (rx, ry) set, 1 when no x of the
 * window qualifies, -1 on invalid arguments or a window reaching p. */
EXPORT int eck_encode_search(const u64 *p, int nl, const u64 *a, const u64 *b,
                             const u64 *x0, u64 count, u64 *rx, u64 *ry) {
    ecctx ctx;
    u64 e[MAXL], x[MAXL], rhs[MAXL], r[MAXL], t[MAXL], one[MAXL];

    if (nl < 1 || nl > MAXL || (p[0] & 3) != 3) return -1;
    ctx_init(&ctx, p, nl, a);
    vzero(one, nl);
    one[0] = 1;

    /* e = (p + 1) / 4, the carry out of p + 1 kept as bit 64*nl */
    u64 carry = vadd(e, p, one, nl);
    for (int i = 0; i < nl; i++) {
        u64 next = i + 1 < nl ? e[i + 1] : carry;
        e[i] = (e[i] >> 2) | (next << 62);
    }

    vset(x, x0, nl);
    for (u64 i = 0; i < count; i++) {
        if (vcmp(x, p, nl) >= 0) return -1;
        mod_sqr(&ctx, rhs, x);
        mod_add(&ctx, rhs, rhs, ctx.a);
        mod_mul(&ctx, rhs, rhs, x);
        mod_add(&ctx, rhs, rhs, b);
        mod_pow(&ctx, r, rhs, e);
        mod_sqr(&ctx, t, r);
        if (vcmp(t, rhs, nl) == 0) {
            vset(rx, x, nl);
            vsub(t, p, r, nl);
            vset(ry, !vis_zero(r, nl) && vcmp(t, r, nl) < 0 ? t : r, nl);
            return 0;
        }
        vadd(x, x, one, nl);
    }
    return 1;
}

/* Sanity probe used by the loader to verify the library works: computes
 * 2*(3,10) on y^2 = x^3 + x + 1 over F_23 and checks the result is (7,12). */
EXPORT int eck_selftest(void) {
    u64 p = 23, a = 1, k = 2, px = 3, py = 10, rx = 0, ry = 0;
    int rc = eck_scalar_mul(&p, 1, &a, &k, 1, &px, &py, 0, &rx, &ry);
    if (rc != 0) return 1;
    return (rx == 7 && ry == 12) ? 0 : 2;
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

/* µs per generic scalar_mul, per fixed-base k*G, and per 32-candidate
 * encode search on one 4-limb curve */
static void bench_curve(const char *label, const u64 *p, const u64 *a, const u64 *b,
                        const u64 *gx, const u64 *gy, int iters) {
    static u64 table[64 * WIN * 9];
    u64 k[4] = {0x0011223344556677ULL, 0x6789ABCDEF001122ULL,
                0x0ADC0DE0DEADBEEFULL, 0x0C0FFEE0FACADE0BULL};
    u64 rx[4], ry[4], x0[4] = {0, 0, 0, 0};
    double t0 = now_us();
    for (int i = 0; i < iters; i++) {
        k[0] += 1;
        eck_scalar_mul(p, 4, a, k, 4, gx, gy, 0, rx, ry);
    }
    double generic = (now_us() - t0) / iters;

    t0 = now_us();
    eck_base_table(p, 4, a, gx, gy, 64, table);
    double build = now_us() - t0;
    t0 = now_us();
    for (int i = 0; i < iters; i++) {
        k[0] += 1;
        eck_base_mul(p, 4, a, table, 64, k, rx, ry);
    }
    double fixed = (now_us() - t0) / iters;

    t0 = now_us();
    for (int i = 0; i < iters; i++) {
        x0[0] = (u64)i * 32;
        eck_encode_search(p, 4, a, b, x0, 32, rx, ry);
    }
    double encode = (now_us() - t0) / iters;
    printf("%s: scalar_mul %.1f us, base-table k*G %.1f us (table build %.0f us), "
           "encode search %.1f us\n", label, generic, fixed, build, encode);
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
    bench_curve("secp256k1 (fold path)", p, a, b, gx, gy, 2000);

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
    bench_curve("secp256r1 (div path) ", pr, ar, br, grx, gry, 500);
    return 0;
}
#endif
