//! Expression evaluation, shared by the S-node (`:test`) and the RHS
//! interpreter.

use crate::ast::{bool_value, truthy, AggOp, BinOp, Expr};
use sorete_base::{Symbol, Value};
use std::fmt;

/// Evaluation error (type errors, unbound variables, divide by zero).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError {
    /// Explanation.
    pub message: String,
}

impl EvalError {
    /// Build from a message.
    pub fn new(message: impl Into<String>) -> Self {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Name resolution for [`eval`]: the caller supplies variable values and
/// (pre-computed) aggregate values.
pub trait Env {
    /// Value of a variable, if bound in this context.
    fn var(&self, v: Symbol) -> Option<Value>;
    /// Value of `(op <v>)`, if the rule declares that aggregate.
    fn agg(&self, op: AggOp, var: Symbol) -> Option<Value>;
}

/// An [`Env`] backed by two closures — convenient for matchers and tests.
pub struct FnEnv<V, A>
where
    V: Fn(Symbol) -> Option<Value>,
    A: Fn(AggOp, Symbol) -> Option<Value>,
{
    /// Variable lookup.
    pub vars: V,
    /// Aggregate lookup.
    pub aggs: A,
}

impl<V, A> Env for FnEnv<V, A>
where
    V: Fn(Symbol) -> Option<Value>,
    A: Fn(AggOp, Symbol) -> Option<Value>,
{
    fn var(&self, v: Symbol) -> Option<Value> {
        (self.vars)(v)
    }
    fn agg(&self, op: AggOp, var: Symbol) -> Option<Value> {
        (self.aggs)(op, var)
    }
}

/// Evaluate an expression.
pub fn eval(expr: &Expr, env: &dyn Env) -> Result<Value, EvalError> {
    match expr {
        Expr::Const(v) => Ok(*v),
        Expr::Var(v) => env
            .var(*v)
            .ok_or_else(|| EvalError::new(format!("unbound variable <{}>", v))),
        Expr::Agg(op, var) => env.agg(*op, *var).ok_or_else(|| {
            EvalError::new(format!("aggregate ({} <{}>) unavailable", op.name(), var))
        }),
        Expr::Bin(op, l, r) => {
            let (lv, rv) = (eval(l, env)?, eval(r, env)?);
            let result = match op {
                BinOp::Add => lv.add(&rv),
                BinOp::Sub => lv.sub(&rv),
                BinOp::Mul => lv.mul(&rv),
                BinOp::Div => lv.div(&rv),
                BinOp::Mod => lv.modulo(&rv),
            };
            result.ok_or_else(|| {
                if matches!(op, BinOp::Div | BinOp::Mod)
                    && lv.as_f64().is_some()
                    && rv.as_f64() == Some(0.0)
                {
                    EvalError::new("division by zero")
                } else {
                    EvalError::new(format!(
                        "arithmetic on non-numeric values {} and {}",
                        lv, rv
                    ))
                }
            })
        }
        Expr::Cmp(pred, l, r) => {
            let (lv, rv) = (eval(l, env)?, eval(r, env)?);
            Ok(bool_value(pred.apply(&lv, &rv)))
        }
        Expr::And(parts) => {
            for p in parts {
                if !truthy(&eval(p, env)?) {
                    return Ok(bool_value(false));
                }
            }
            Ok(bool_value(true))
        }
        Expr::Or(parts) => {
            for p in parts {
                if truthy(&eval(p, env)?) {
                    return Ok(bool_value(true));
                }
            }
            Ok(bool_value(false))
        }
        Expr::Not(inner) => Ok(bool_value(!truthy(&eval(inner, env)?))),
    }
}

/// Evaluate an expression and coerce to a boolean (used by `:test` / `if`).
pub fn eval_truthy(expr: &Expr, env: &dyn Env) -> Result<bool, EvalError> {
    Ok(truthy(&eval(expr, env)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pred;

    fn env<'a>(pairs: &'a [(&'a str, Value)]) -> impl Env + 'a {
        FnEnv {
            vars: move |v: Symbol| {
                pairs
                    .iter()
                    .find(|(name, _)| Symbol::new(name) == v)
                    .map(|(_, val)| *val)
            },
            aggs: |op: AggOp, _| {
                if op == AggOp::Count {
                    Some(Value::Int(3))
                } else {
                    None
                }
            },
        }
    }

    #[test]
    fn arithmetic_and_vars() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Var(Symbol::new("x"))),
            Box::new(Expr::Const(Value::Int(2))),
        );
        assert_eq!(
            eval(&e, &env(&[("x", Value::Int(40))])).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn comparison_yields_bool_symbols() {
        let e = Expr::Cmp(
            Pred::Gt,
            Box::new(Expr::Agg(AggOp::Count, Symbol::new("P"))),
            Box::new(Expr::Const(Value::Int(1))),
        );
        assert_eq!(eval(&e, &env(&[])).unwrap(), Value::sym("true"));
        assert!(eval_truthy(&e, &env(&[])).unwrap());
    }

    #[test]
    fn logic_short_circuits() {
        // `false and (1/0)` — the division must never run.
        let boom = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::Const(Value::Int(1))),
            Box::new(Expr::Const(Value::Int(0))),
        );
        let e = Expr::And(vec![Expr::Const(Value::sym("false")), boom.clone()]);
        assert_eq!(eval(&e, &env(&[])).unwrap(), Value::sym("false"));
        let e = Expr::Or(vec![Expr::Const(Value::sym("true")), boom]);
        assert_eq!(eval(&e, &env(&[])).unwrap(), Value::sym("true"));
    }

    #[test]
    fn errors() {
        let unbound = Expr::Var(Symbol::new("missing"));
        assert!(eval(&unbound, &env(&[])).is_err());
        let bad = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Const(Value::sym("a"))),
            Box::new(Expr::Const(Value::Int(2))),
        );
        assert!(eval(&bad, &env(&[])).is_err());
        for op in [BinOp::Div, BinOp::Mod] {
            let div0 = Expr::Bin(
                op,
                Box::new(Expr::Const(Value::Int(1))),
                Box::new(Expr::Const(Value::Int(0))),
            );
            let err = eval(&div0, &env(&[])).unwrap_err();
            assert!(err.to_string().contains("division by zero"), "{}", err);
        }
    }

    #[test]
    fn not_inverts() {
        let e = Expr::Not(Box::new(Expr::Const(Value::Nil)));
        assert_eq!(eval(&e, &env(&[])).unwrap(), Value::sym("true"));
    }
}
