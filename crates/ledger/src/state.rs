//! World state: account balances and nonces with a deterministic root.

use crate::sha256::Sha256;
use crate::types::{Address, Hash256, Wei};
use std::collections::BTreeMap;
use std::fmt;

/// An externally owned or contract account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Account {
    /// Current balance.
    pub balance: Wei,
    /// Transactions sent so far (replay protection).
    pub nonce: u64,
}

/// Errors from balance manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Debit exceeding the account balance.
    InsufficientBalance {
        /// Account being debited.
        account: Address,
        /// Balance available.
        available: Wei,
        /// Amount requested.
        requested: Wei,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance { account, available, requested } => write!(
                f,
                "account {account} holds {available} but {requested} was requested"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// The full account state. A `BTreeMap` keeps iteration (and therefore
/// the state root) deterministic.
///
/// Rollback is journaled: while a [`WorldState::mark`] is open, every
/// mutation first records the account's prior value (`None` if the
/// mutation creates it), and [`WorldState::revert_to`] replays those
/// records backwards. Reverting costs what the reverted work touched,
/// not the size of the state. The journal is bookkeeping only: equality
/// and [`WorldState::root`] see the accounts alone.
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
    /// Prior values of mutated accounts, oldest first; `None` while no
    /// mark is open.
    journal: Option<Vec<(Address, Option<Account>)>>,
}

impl PartialEq for WorldState {
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts
    }
}

impl WorldState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// State pre-funded with the given allocations (genesis).
    pub fn with_allocations(allocs: &[(Address, Wei)]) -> Self {
        let mut s = Self::new();
        for &(addr, amount) in allocs {
            s.accounts.entry(addr).or_default().balance = amount;
        }
        s
    }

    /// Balance of `addr` (zero for unknown accounts).
    pub fn balance_of(&self, addr: Address) -> Wei {
        self.accounts.get(&addr).map_or(Wei::ZERO, |a| a.balance)
    }

    /// Nonce of `addr` (zero for unknown accounts).
    pub fn nonce_of(&self, addr: Address) -> u64 {
        self.accounts.get(&addr).map_or(0, |a| a.nonce)
    }

    /// The account at `addr` for mutation, created if absent; its prior
    /// value is journaled first while a mark is open.
    fn account_mut(&mut self, addr: Address) -> &mut Account {
        if let Some(journal) = &mut self.journal {
            journal.push((addr, self.accounts.get(&addr).copied()));
        }
        self.accounts.entry(addr).or_default()
    }

    /// Opens a rollback point (nested marks are fine) and returns it
    /// for [`WorldState::revert_to`]. Mutations are journaled from now
    /// until [`WorldState::commit`].
    pub fn mark(&mut self) -> usize {
        self.journal.get_or_insert_with(Vec::new).len()
    }

    /// Undoes every mutation made since `mark` was returned, including
    /// removing accounts that work created. The mark stays open.
    pub fn revert_to(&mut self, mark: usize) {
        let Some(journal) = &mut self.journal else { return };
        while journal.len() > mark {
            let Some((addr, prior)) = journal.pop() else { break };
            match prior {
                Some(acct) => self.accounts.insert(addr, acct),
                None => self.accounts.remove(&addr),
            };
        }
    }

    /// Keeps every journaled mutation and closes all marks.
    pub fn commit(&mut self) {
        self.journal = None;
    }

    /// Credits `amount` to `addr`, creating the account if needed.
    pub fn credit(&mut self, addr: Address, amount: Wei) {
        let acct = self.account_mut(addr);
        // lint:allow(no-panic-in-lib): total supply is conserved by debit-before-credit, so overflow is a broken-ledger invariant; abort beats silent wrap
        acct.balance = acct.balance.checked_add(amount).expect("balance overflow on credit");
    }

    /// Debits `amount` from `addr`.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if the account cannot cover
    /// the amount; the state is unchanged in that case.
    pub fn debit(&mut self, addr: Address, amount: Wei) -> Result<(), StateError> {
        let acct = self.account_mut(addr);
        match acct.balance.checked_sub(amount) {
            Some(rest) => {
                acct.balance = rest;
                Ok(())
            }
            None => Err(StateError::InsufficientBalance {
                account: addr,
                available: acct.balance,
                requested: amount,
            }),
        }
    }

    /// Moves `amount` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if `from` cannot cover it.
    pub fn transfer(&mut self, from: Address, to: Address, amount: Wei) -> Result<(), StateError> {
        self.debit(from, amount)?;
        self.credit(to, amount);
        Ok(())
    }

    /// Increments `addr`'s nonce. Saturating: a u64 nonce cannot
    /// legitimately reach the cap (10¹⁹ transactions from one account),
    /// and saturation keeps the replay guard sound — the nonce check
    /// rejects reuse rather than wrapping back to accept old txs.
    pub fn bump_nonce(&mut self, addr: Address) {
        let acct = self.account_mut(addr);
        acct.nonce = acct.nonce.saturating_add(1);
    }

    /// Number of accounts ever touched.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether no account exists.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Total wei across all accounts (conservation checks).
    pub fn total_supply(&self) -> Wei {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Deterministic digest of the entire state (the block header's
    /// `state_root`).
    ///
    /// Each account is streamed into the hasher as its 44-byte record
    /// (address, big-endian balance, big-endian nonce), in address
    /// order; nothing the size of the state is buffered.
    pub fn root(&self) -> Hash256 {
        let mut h = Sha256::new();
        let mut record = [0u8; 44];
        for (addr, acct) in &self.accounts {
            record[..20].copy_from_slice(&addr.0);
            record[20..36].copy_from_slice(&acct.balance.0.to_be_bytes());
            record[36..].copy_from_slice(&acct.nonce.to_be_bytes());
            h.update(&record);
        }
        Hash256(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: &str) -> Address {
        Address::from_name(n)
    }

    #[test]
    fn credit_debit_and_transfer() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(100));
        s.transfer(addr("a"), addr("b"), Wei(40)).unwrap();
        assert_eq!(s.balance_of(addr("a")), Wei(60));
        assert_eq!(s.balance_of(addr("b")), Wei(40));
        assert_eq!(s.total_supply(), Wei(100));
    }

    #[test]
    fn debit_fails_without_funds_and_preserves_state() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(10));
        let before = s.clone();
        let err = s.debit(addr("a"), Wei(11)).unwrap_err();
        assert!(matches!(err, StateError::InsufficientBalance { .. }));
        assert_eq!(s, before);
    }

    #[test]
    #[should_panic(expected = "balance overflow on credit")]
    fn credit_overflow_aborts_instead_of_wrapping() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(u128::MAX));
        s.credit(addr("a"), Wei(1));
    }

    #[test]
    fn nonce_saturates_at_the_cap_keeping_replay_protection() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(1));
        // Force the account to the cap, then bump: the nonce must stay
        // pinned (rejecting stale txs) rather than wrap to zero (which
        // would re-accept the account's entire history).
        s.accounts.get_mut(&addr("a")).unwrap().nonce = u64::MAX;
        s.bump_nonce(addr("a"));
        assert_eq!(s.nonce_of(addr("a")), u64::MAX);
    }

    #[test]
    fn root_changes_with_any_mutation() {
        let mut s = WorldState::with_allocations(&[(addr("a"), Wei(5))]);
        let r0 = s.root();
        s.credit(addr("a"), Wei(1));
        let r1 = s.root();
        assert_ne!(r0, r1);
        s.bump_nonce(addr("a"));
        assert_ne!(r1, s.root());
    }

    /// The streamed root hashes exactly the bytes the buffered
    /// encoding it replaced did: per account, in address order, the
    /// address, the big-endian balance and the big-endian nonce.
    #[test]
    fn streamed_root_hashes_the_buffered_encoding() {
        use tradefl_runtime::codec::BytesMut;
        let mut s = WorldState::new();
        for k in 0..300u64 {
            s.credit(addr(&format!("acct-{k}")), Wei(u128::from(k) << 70 | u128::from(k)));
            for _ in 0..k % 3 {
                s.bump_nonce(addr(&format!("acct-{k}")));
            }
        }
        let mut buf = BytesMut::with_capacity(s.len() * 44);
        for (a, acct) in &s.accounts {
            buf.put_slice(&a.0);
            buf.put_u128(acct.balance.0);
            buf.put_u64(acct.nonce);
        }
        assert_eq!(s.root(), Hash256(crate::sha256::digest(&buf)));
        assert_eq!(WorldState::new().root(), Hash256(crate::sha256::digest(&[])));
    }

    #[test]
    fn root_is_order_independent() {
        let mut s1 = WorldState::new();
        s1.credit(addr("a"), Wei(1));
        s1.credit(addr("b"), Wei(2));
        let mut s2 = WorldState::new();
        s2.credit(addr("b"), Wei(2));
        s2.credit(addr("a"), Wei(1));
        assert_eq!(s1.root(), s2.root());
    }

    #[test]
    fn revert_removes_accounts_the_reverted_work_created() {
        let mut s = WorldState::with_allocations(&[(addr("a"), Wei(5))]);
        let before = s.clone();
        let mark = s.mark();
        s.credit(addr("fresh"), Wei(1));
        // A failed debit still creates its account.
        assert!(s.debit(addr("empty"), Wei(1)).is_err());
        s.bump_nonce(addr("a"));
        assert_eq!(s.len(), 3);
        s.revert_to(mark);
        s.commit();
        assert_eq!(s, before);
        assert_eq!(s.len(), 1);
        assert_eq!(s.root(), before.root());
    }

    /// Journaled rollback against the clone-based rollback it replaced:
    /// a seeded run of blocks of "transactions", each a burst of
    /// credits, debits (some overdrawn), transfers and nonce bumps over
    /// accounts that keep being created, with about a third of the
    /// transactions and a quarter of the blocks reverted.
    #[test]
    fn journaled_rollback_matches_a_clone_based_reference() {
        use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut journaled = WorldState::with_allocations(&[(addr("bank"), Wei(10_000))]);
        let mut reference = journaled.clone();
        let (mut fresh, mut creations_undone) = (0, 0);
        for _ in 0..60 {
            let block_mark = journaled.mark();
            let block_snapshot = reference.clone();
            for _ in 0..rng.gen_range(1..6usize) {
                let tx_mark = journaled.mark();
                let tx_snapshot = reference.clone();
                for _ in 0..rng.gen_range(1..5usize) {
                    let who = if rng.gen_range(0..3u32) == 0 {
                        fresh += 1;
                        addr(&format!("fresh-{fresh}"))
                    } else {
                        addr(["bank", "a", "b"][rng.gen_range(0..3usize)])
                    };
                    let amount = Wei(rng.gen_range(0..400u64) as u128);
                    match rng.gen_range(0..4u32) {
                        0 => {
                            journaled.credit(who, amount);
                            reference.credit(who, amount);
                        }
                        1 => assert_eq!(journaled.debit(who, amount), reference.debit(who, amount)),
                        2 => assert_eq!(
                            journaled.transfer(addr("bank"), who, amount),
                            reference.transfer(addr("bank"), who, amount)
                        ),
                        _ => {
                            journaled.bump_nonce(who);
                            reference.bump_nonce(who);
                        }
                    }
                }
                if rng.gen_range(0..3u32) == 0 {
                    let len = journaled.len();
                    journaled.revert_to(tx_mark);
                    creations_undone += len - journaled.len();
                    reference = tx_snapshot;
                }
                assert_eq!(journaled.accounts, reference.accounts);
            }
            if rng.gen_range(0..4u32) == 0 {
                journaled.revert_to(block_mark);
                reference = block_snapshot;
            }
            journaled.commit();
            assert_eq!(journaled.accounts, reference.accounts);
            assert_eq!(journaled.root(), reference.root());
        }
        assert!(creations_undone > 0, "the run must revert account creations");
    }

    #[test]
    fn genesis_allocations() {
        let s = WorldState::with_allocations(&[(addr("x"), Wei(7)), (addr("y"), Wei(9))]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.balance_of(addr("x")), Wei(7));
        assert_eq!(s.nonce_of(addr("x")), 0);
    }
}
